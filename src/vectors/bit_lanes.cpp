#include "vectors/bit_lanes.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "util/contracts.hpp"

namespace mpe::vec::detail {

namespace {

/// The start-up table of lanes `stride` generator steps apart. Process-wide
/// and computed once per stride (7 jump polynomials of log2(stride)
/// squarings each), so every slot, shard and thread shares it and a pass
/// pays only the lookup. Strides are (count / lanes) * 2 * width: few per
/// process.
LaneMasks lane_masks(std::uint64_t stride) {
  static std::mutex mutex;
  static std::unordered_map<std::uint64_t, LaneMasks> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(stride);
  if (it == cache.end()) {
    if (cache.size() >= 4096) cache.clear();  // bounds a pathological mix
    LaneMasks masks{};
    for (std::uint64_t j = 0; j < 8; ++j) {
      MPE_EXPECTS(j == 0 || stride <= ~std::uint64_t{0} / j);
      const Rng::JumpPoly poly = Rng::jump_poly(j * stride);
      for (std::size_t i = 0; i < 256; ++i) {
        if ((poly[i / 64] >> (i % 64)) & 1) {
          masks[i] |= static_cast<std::uint8_t>(1u << j);
        }
      }
    }
    it = cache.emplace(stride, masks).first;
  }
  return it->second;
}

/// One lane: run.per_lane pairs from `rng`, one draw per bit, whole row
/// words stored.
void draw_lane_scalar(const LaneRun& run, Rng& rng) {
  Rng r = rng;
  auto draw_row = [&](std::uint64_t threshold, std::uint64_t* row) {
    for (std::size_t w = 0; w < run.row_words; ++w) {
      const std::size_t bits = std::min<std::size_t>(64, run.width - 64 * w);
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        word |= static_cast<std::uint64_t>(r.bernoulli_below(threshold)) << b;
      }
      row[w] = word;
    }
  };
  for (std::size_t t = 0; t < run.per_lane; ++t) {
    draw_row(run.first_threshold, run.first + t * run.row_words);
    draw_row(run.second_threshold, run.second + t * run.row_words);
  }
  rng = r;
}

std::size_t lane_count(sim::SimdKernel kernel) {
  return sim::kernel_lanes(kernel) / 64;
}

}  // namespace

void draw_rows(const BitRecipe& recipe, std::size_t width, Rng& rng,
               std::size_t count, PairRows& out, sim::SimdKernel kernel) {
  MPE_EXPECTS(width >= 1);
  MPE_EXPECTS_MSG(sim::kernel_available(kernel),
                  "requested SIMD kernel is not available on this host");
  out.resize(width, count);
  LaneRun run{width,
              out.row_words(),
              recipe.first_threshold,
              recipe.second_threshold,
              count / lane_count(kernel),
              out.first.data(),
              out.second.data()};
  std::size_t done = 0;
  if (kernel != sim::SimdKernel::kScalar64 && run.per_lane > 0) {
    const LaneMasks masks = lane_masks(run.per_lane * 2 * width);
    Rng::State state = rng.state();
    switch (kernel) {
      case sim::SimdKernel::kAvx2x256:
#if defined(MPE_HAVE_AVX2_KERNEL)
        draw_lanes_avx2(run, masks, state.s);
#endif
        break;
      case sim::SimdKernel::kAvx512x512:
#if defined(MPE_HAVE_AVX512_KERNEL)
        draw_lanes_avx512(run, masks, state.s);
#endif
        break;
      case sim::SimdKernel::kScalar64:
        break;
    }
    rng.set_state(state);
    done = run.per_lane * lane_count(kernel);
  }
  run.per_lane = count - done;
  run.first += done * run.row_words;
  run.second += done * run.row_words;
  draw_lane_scalar(run, rng);
  if (recipe.flips) {
    for (std::size_t i = 0; i < out.first.size(); ++i) {
      out.second[i] ^= out.first[i];
    }
  }
}

}  // namespace mpe::vec::detail
