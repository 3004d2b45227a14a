// Internal: the lane draw behind FixedDrawPairGenerator::generate_rows.
//
// xoshiro256++'s state update is linear over GF(2), so the one stream of a
// batch can be cut into L consecutive pieces and drawn side by side: lane j
// starts at pair j * (count / L), reached from the caller's state by an
// exact jump-ahead (Rng::jump_poly), and the last count % L pairs come from
// one scalar lane that continues from lane L - 1's end state. Each drawn
// bit is OR-ed straight into its pair's row word. Rows and the caller's end
// state equal those of `count` FixedDrawPairGenerator::generate_into()
// calls, bit for bit, on every kernel.
//
// Only the ISA translation units (bit_lanes_avx2.cpp, bit_lanes_avx512.cpp)
// are compiled with wider instruction sets; draw_rows enters them only for
// a kernel sim::cpu_dispatch reports available. Not part of the public API.
#pragma once

#include <array>
#include <cstdint>

#include "sim/cpu_dispatch.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"
#include "vectors/input_vector.hpp"

namespace mpe::vec::detail {

/// Draws `count` pairs of `recipe` at `width` into `out` (resized), on the
/// lanes of `kernel`: 8 for AVX-512, 4 for AVX2, 1 for scalar64.
void draw_rows(const BitRecipe& recipe, std::size_t width, Rng& rng,
               std::size_t count, PairRows& out, sim::SimdKernel kernel);

/// One lane kernel's work: `per_lane` consecutive pairs per lane, lane j's
/// pairs at rows j * per_lane onwards of `first`/`second`. The bits are the
/// raw draws of both halves; draw_rows applies the recipe's flips after.
struct LaneRun {
  std::size_t width;
  std::size_t row_words;
  std::uint64_t first_threshold;
  std::uint64_t second_threshold;
  std::size_t per_lane;
  std::uint64_t* first;
  std::uint64_t* second;
};

/// Lane start-up table: bit j of masks[i] is coefficient i of
/// x^(j * stride) mod P, the jump polynomial of lane j's start.
using LaneMasks = std::array<std::uint8_t, 256>;

#if defined(MPE_HAVE_AVX2_KERNEL)
/// Four lanes started from `state` by `masks`; leaves lane 3's end state in
/// `state`.
void draw_lanes_avx2(const LaneRun& run, const LaneMasks& masks,
                     std::array<std::uint64_t, 4>& state);
#endif

#if defined(MPE_HAVE_AVX512_KERNEL)
/// Eight lanes started from `state` by `masks`; leaves lane 7's end state
/// in `state`.
void draw_lanes_avx512(const LaneRun& run, const LaneMasks& masks,
                       std::array<std::uint64_t, 4>& state);
#endif

}  // namespace mpe::vec::detail
