// Internal: the lane draw shared by the ISA translation units. Each unit
// instantiates draw_lanes<Ops> with its own Ops: V, a GCC/Clang vector of
// uint64_t lanes (4 under AVX2, 8 under AVX-512), and or_below(), the
// threshold test that ORs a lane's bit into its row word. One loop body
// serves both widths, as simd_sim_impl.hpp does for the gate tape. Not part
// of the public API.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "vectors/bit_lanes.hpp"

namespace mpe::vec::detail {

/// The scalar xoshiro256 state update. Defined here rather than taken from
/// Rng so that no inline function of another header is emitted with an ISA
/// unit's wider instruction set.
inline void xoshiro_step(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);
}

/// Draws run.per_lane pairs on each of the sizeof(V) / 8 lanes of
/// V = Ops::V. Lane j starts at the sum of T^i(state) over the coefficients
/// i whose mask bit j is set (all jump-aheads in one walk of 256 scalar
/// steps); `state` is left at the last lane's end state.
template <typename Ops>
void draw_lanes(const LaneRun& run, const LaneMasks& masks,
                std::array<std::uint64_t, 4>& state) {
  using V = typename Ops::V;
  constexpr std::size_t kLanes = sizeof(V) / sizeof(std::uint64_t);

  V lane_bit{};
  for (std::size_t j = 0; j < kLanes; ++j) lane_bit[j] = std::uint64_t{1} << j;
  V s0{}, s1{}, s2{}, s3{};
  std::array<std::uint64_t, 4> walk = state;
  for (std::size_t i = 0; i < 256; ++i) {
    const V take = (V)((lane_bit & masks[i]) != 0);
    s0 ^= take & walk[0];
    s1 ^= take & walk[1];
    s2 ^= take & walk[2];
    s3 ^= take & walk[3];
    xoshiro_step(walk);
  }

  // Lane j's row k sits j * per_lane rows below lane 0's.
  const std::size_t lane_rows = run.per_lane * run.row_words;
  auto draw_row = [&](std::uint64_t threshold, std::uint64_t* row) {
    const V thr = V{} + threshold;
    for (std::size_t w = 0; w < run.row_words; ++w) {
      const std::size_t bits = std::min<std::size_t>(64, run.width - 64 * w);
      V word{};
      V bit = V{} + 1;
      for (std::size_t b = 0; b < bits; ++b) {
        const V x = ((s0 + s3) << 23 | (s0 + s3) >> 41) + s0;
        const V t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = s3 << 45 | s3 >> 19;
        word = Ops::or_below(word, x >> 11, thr, bit);
        bit += bit;
      }
      for (std::size_t j = 0; j < kLanes; ++j) row[j * lane_rows + w] = word[j];
    }
  };
  for (std::size_t t = 0; t < run.per_lane; ++t) {
    draw_row(run.first_threshold, run.first + t * run.row_words);
    draw_row(run.second_threshold, run.second + t * run.row_words);
  }
  state = {s0[kLanes - 1], s1[kLanes - 1], s2[kLanes - 1], s3[kLanes - 1]};
}

}  // namespace mpe::vec::detail
