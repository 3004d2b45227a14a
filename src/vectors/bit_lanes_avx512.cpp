// Eight xoshiro256++ lanes in one set of zmm registers. Compiled with
// -mavx512f/dq/bw/vl; entered only after cpu_dispatch reports the set.
#if defined(MPE_HAVE_AVX512_KERNEL)

#include <immintrin.h>

#include "vectors/bit_lanes_impl.hpp"

namespace mpe::vec::detail {

namespace {

struct Avx512Ops {
  using V = std::uint64_t __attribute__((vector_size(64)));
  /// Rng::bernoulli_below as an unsigned compare into a mask register, and
  /// `bit` OR-ed into the lanes under that mask.
  static V or_below(V word, V drawn, V threshold, V bit) {
    const __mmask8 below = _mm512_cmplt_epu64_mask(
        reinterpret_cast<__m512i>(drawn), reinterpret_cast<__m512i>(threshold));
    return reinterpret_cast<V>(_mm512_mask_or_epi64(
        reinterpret_cast<__m512i>(word), below,
        reinterpret_cast<__m512i>(word), reinterpret_cast<__m512i>(bit)));
  }
};

}  // namespace

void draw_lanes_avx512(const LaneRun& run, const LaneMasks& masks,
                       std::array<std::uint64_t, 4>& state) {
  draw_lanes<Avx512Ops>(run, masks, state);
}

}  // namespace mpe::vec::detail

#endif  // MPE_HAVE_AVX512_KERNEL
