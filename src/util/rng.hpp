// Deterministic, splittable pseudo-random number generation.
//
// The whole library threads explicit RNG objects (no global state) so every
// experiment is reproducible from a single seed. The generator is
// xoshiro256++ seeded via splitmix64, which is fast, passes BigCrush, and is
// trivially splittable into independent streams (jump()).
#pragma once

#include <cstdint>
#include <array>

#include "util/contracts.hpp"

namespace mpe {

/// xoshiro256++ generator. Satisfies std::uniform_random_bit_generator so it
/// can also feed <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from `seed` using splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit output. Inline: the generator step is a handful of
  /// shifts/xors, and per-bit callers (vector-pair generation) sit on the
  /// simulation hot path where an out-of-line call per bit dominates.
  /// Per-bit callers draw from a local copy (`Rng r = rng; ... rng = r;`)
  /// so their byte stores cannot alias the state out of registers.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Rejection-free Lemire reduction.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) {
    MPE_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Integer form of bernoulli(p) for per-bit loops. bernoulli(p) tests
  /// (x >> 11) * 2^-53 < p on the raw word x; both sides are exact, so the
  /// test equals (x >> 11) < ceil(p * 2^53). Compute this threshold once,
  /// then draw with bernoulli_below(): the same words, the same results.
  static std::uint64_t bernoulli_threshold(double p);

  /// One Bernoulli draw against a bernoulli_threshold(p).
  bool bernoulli_below(std::uint64_t threshold) {
    return ((*this)() >> 11) < threshold;
  }

  /// Standard normal variate (Marsaglia polar method, cached spare).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Standard exponential variate (rate 1).
  double exponential();

  /// Advances this generator 2^128 steps, equivalent to that many calls.
  /// Use to carve independent substreams from one seed.
  void jump();

  /// Returns an independent child generator (jumps this one first).
  Rng split();

  /// Complete serializable generator state: the four xoshiro words plus the
  /// cached spare normal. Restoring it makes the generator continue the
  /// exact output sequence from the capture point — the mechanism that lets
  /// a resumed estimation run stay bit-identical to an uninterrupted one
  /// (maxpower/checkpoint).
  struct State {
    std::array<std::uint64_t, 4> s{};
    double spare_normal = 0.0;
    bool has_spare = false;
  };

  State state() const { return {s_, spare_normal_, has_spare_}; }
  void set_state(const State& state) {
    s_ = state.s;
    spare_normal_ = state.spare_normal;
    has_spare_ = state.has_spare;
    // All-zero xoshiro state would lock the generator at zero forever; a
    // corrupt checkpoint must not be able to smuggle it in.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// Counter-derived stream seed: hashes (seed, stream) through the splitmix64
/// finalizer so that Rng(stream_seed(seed, i)) yields independent,
/// reproducible streams for any set of indices. This is the determinism
/// backbone of every parallel path (parallel DB build, the speculative
/// estimator pipeline): work item i always sees the same stream no matter
/// which thread runs it, or whether any threads are used at all.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace mpe
