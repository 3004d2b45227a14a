// Four xoshiro256++ lanes in one set of ymm registers. Compiled with -mavx2;
// entered only after cpu_dispatch reports it.
#if defined(MPE_HAVE_AVX2_KERNEL)

#include "vectors/bit_lanes_impl.hpp"

namespace mpe::vec::detail {

namespace {

struct Avx2Ops {
  using V = std::uint64_t __attribute__((vector_size(32)));
  using S = std::int64_t __attribute__((vector_size(32)));
  /// Rng::bernoulli_below: `drawn` and `threshold` are below 2^63, so the
  /// signed compare (AVX2 has no unsigned one) is exact.
  static V or_below(V word, V drawn, V threshold, V bit) {
    return word | (bit & (V)((S)drawn < (S)threshold));
  }
};

}  // namespace

void draw_lanes_avx2(const LaneRun& run, const LaneMasks& masks,
                     std::array<std::uint64_t, 4>& state) {
  draw_lanes<Avx2Ops>(run, masks, state);
}

}  // namespace mpe::vec::detail

#endif  // MPE_HAVE_AVX2_KERNEL
