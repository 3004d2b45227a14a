#include "sim/simd_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/simd_sim_impl.hpp"
#include "sim/simd_sim_kernels.hpp"
#include "util/contracts.hpp"

namespace mpe::sim {

namespace detail {

namespace {

/// Portable fallback: one 64-bit word per node, plain integer ops. The
/// reference the wider kernels must match bit for bit.
struct ScalarOps {
  using Word = std::uint64_t;
  static constexpr std::size_t kWords = 1;
  static Word load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Word w) { *p = w; }
  static Word and_(Word a, Word b) { return a & b; }
  static Word or_(Word a, Word b) { return a | b; }
  static Word xor_(Word a, Word b) { return a ^ b; }
  static Word not_(Word a) { return ~a; }
  static Word ones() { return ~0ULL; }
  static void epilogue(const GateProgram& p, const std::uint64_t* state1,
                       const std::uint64_t* state2, double* lane_energy,
                       std::uint64_t* lane_toggles) {
    const double* energy = p.energy_per_toggle().data();
    const std::size_t num_nodes = p.num_nodes();
    for (std::size_t n = 0; n < num_nodes; ++n) {
      std::uint64_t toggled = state1[n] ^ state2[n];
      const double e = energy[n];
      while (toggled != 0) {
        const int k = std::countr_zero(toggled);
        lane_energy[k] += e;
        ++lane_toggles[k];
        toggled &= toggled - 1;
      }
    }
  }
};

}  // namespace

void run_tape_scalar64(const GateProgram& p, std::uint64_t* state1,
                       std::uint64_t* state2, double* lane_energy,
                       std::uint64_t* lane_toggles) {
  run_tape_kernel<ScalarOps>(p, state1, state2, lane_energy, lane_toggles);
}

}  // namespace detail

CompiledSimulator::CompiledSimulator(
    std::shared_ptr<const GateProgram> program, SimdKernel kernel)
    : program_(std::move(program)), kernel_(kernel) {
  MPE_EXPECTS(program_ != nullptr);
  MPE_EXPECTS_MSG(kernel_available(kernel_),
                  "requested SIMD kernel is not available on this host");
  lanes_ = kernel_lanes(kernel_);
  words_per_node_ = lanes_ / 64;
  // One allocation for both settled-state arrays, rounded up so each can be
  // 64-byte aligned for the widest vector loads.
  const std::size_t words_per_state = program_->num_nodes() * words_per_node_;
  state_storage_.assign(2 * words_per_state + 2 * 8, 0);
  auto align_up = [](std::uint64_t* p) {
    auto addr = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<std::uint64_t*>((addr + 63) & ~std::uintptr_t{63});
  };
  state1_ = align_up(state_storage_.data());
  state2_ = align_up(state1_ + words_per_state);
  lane_energy_.assign(lanes_, 0.0);
  lane_toggles_.assign(lanes_, 0);
}

namespace {

/// In-place transpose of a 64x64 bit matrix with LSB-first columns:
/// afterwards bit j of a[i] is the old bit i of a[j]. Radix-swap of
/// off-diagonal blocks at strides 32,16,...,1 (Hacker's Delight 7-3,
/// mirrored for LSB-first bit order).
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k + j] ^= t;
      a[k] ^= t << j;
    }
  }
}

}  // namespace

void CompiledSimulator::load_rows(const vec::PairRows& rows) {
  const auto& input_node = program_->input_node();
  const std::size_t width = input_node.size();
  const std::size_t kW = words_per_node_;
  const std::size_t in_words = rows.row_words();
  // One 64-lane word column at a time: gather 64 rows' word b (zero past
  // the last pair), transpose the 64x64 block, then store whole words into
  // the input node rows.
  for (std::size_t w = 0; w < kW; ++w) {
    const std::size_t lanes = std::min<std::size_t>(
        64, rows.count > 64 * w ? rows.count - 64 * w : 0);
    const std::uint64_t* rows1 = rows.first.data() + 64 * w * in_words;
    const std::uint64_t* rows2 = rows.second.data() + 64 * w * in_words;
    for (std::size_t b = 0; b < in_words; ++b) {
      const std::size_t count = std::min<std::size_t>(64, width - 64 * b);
      std::uint64_t t1[64];
      std::uint64_t t2[64];
      for (std::size_t j = 0; j < 64; ++j) {
        t1[j] = j < lanes ? rows1[j * in_words + b] : 0;
        t2[j] = j < lanes ? rows2[j * in_words + b] : 0;
      }
      transpose64(t1);
      transpose64(t2);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t row = input_node[64 * b + i] * kW + w;
        state1_[row] = t1[i];
        state2_[row] = t2[i];
      }
    }
  }
}

void CompiledSimulator::evaluate_batch(std::span<const vec::VectorPair> pairs,
                                       std::vector<CycleResult>& out) {
  MPE_EXPECTS(!pairs.empty());
  MPE_EXPECTS_MSG(pairs.size() <= lanes_,
                  "at most lanes() pairs per compiled batch");
  pack_rows_.resize(program_->input_node().size(), pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    pack_rows_.set_pair(k, pairs[k]);
  }
  evaluate_rows(pack_rows_, out);
}

void CompiledSimulator::evaluate_rows(const vec::PairRows& rows,
                                      std::vector<CycleResult>& out) {
  MPE_EXPECTS(rows.count >= 1);
  MPE_EXPECTS_MSG(rows.count <= lanes_,
                  "at most lanes() pairs per compiled batch");
  MPE_EXPECTS_MSG(rows.width == program_->input_node().size(),
                  "pair width must match the netlist input count");
  load_rows(rows);
  std::memset(lane_energy_.data(), 0, lanes_ * sizeof(double));
  std::memset(lane_toggles_.data(), 0, lanes_ * sizeof(std::uint64_t));

  switch (kernel_) {
    case SimdKernel::kScalar64:
      detail::run_tape_scalar64(*program_, state1_, state2_,
                                lane_energy_.data(), lane_toggles_.data());
      break;
    case SimdKernel::kAvx2x256:
#if defined(MPE_HAVE_AVX2_KERNEL)
      detail::run_tape_avx2x256(*program_, state1_, state2_,
                                lane_energy_.data(), lane_toggles_.data());
      break;
#else
      MPE_ENSURES(false);
      break;
#endif
    case SimdKernel::kAvx512x512:
#if defined(MPE_HAVE_AVX512_KERNEL)
      detail::run_tape_avx512x512(*program_, state1_, state2_,
                                  lane_energy_.data(), lane_toggles_.data());
      break;
#else
      MPE_ENSURES(false);
      break;
#endif
  }

  out.resize(rows.count);
  const double period = program_->technology().clock_period_ns;
  for (std::size_t k = 0; k < rows.count; ++k) {
    CycleResult& r = out[k];
    r.energy_pj = lane_energy_[k];
    r.toggles = static_cast<std::size_t>(lane_toggles_[k]);
    r.power_mw = r.energy_pj / period;
    r.settle_time_ns = 0.0;
  }
}

std::vector<CycleResult> CompiledSimulator::evaluate_batch(
    std::span<const vec::VectorPair> pairs) {
  std::vector<CycleResult> out;
  evaluate_batch(pairs, out);
  return out;
}

}  // namespace mpe::sim
