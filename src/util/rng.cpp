#include "util/rng.hpp"

#include <bit>
#include <cmath>

#include "util/contracts.hpp"

namespace mpe {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  MPE_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::bernoulli_threshold(double p) {
  MPE_EXPECTS(p >= 0.0 && p <= 1.0);
  // p * 2^53 is exact for every p in [0, 1], subnormals included.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::uint64_t Rng::below(std::uint64_t n) {
  MPE_EXPECTS(n > 0);
  // Lemire's nearly-divisionless unbiased reduction.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = -n % n;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  MPE_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) {
  MPE_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

double Rng::exponential() {
  // -log U with U in (0,1]; uniform() returns [0,1), so flip.
  return -std::log(1.0 - uniform());
}

namespace {

using Poly = Rng::JumpPoly;

// The characteristic polynomial of the xoshiro256 state update without its
// x^256 term, found by Berlekamp-Massey on one state bit. x^(2^128) mod P is
// jump()'s published constant; Rng.AdvanceEqualsRepeatedCalls checks the
// reduction against stepped generators.
constexpr Poly kCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                            0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

// a * x mod P.
Poly times_x(const Poly& a) {
  const std::uint64_t carry = a[3] >> 63;
  Poly r = {a[0] << 1, (a[1] << 1) | (a[0] >> 63), (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63)};
  if (carry != 0) {
    for (int w = 0; w < 4; ++w) r[w] ^= kCharPoly[w];
  }
  return r;
}

// Spreads the 32 bits of `x` to the even bit positions: the square of a
// GF(2) polynomial has no cross terms.
std::uint64_t spread(std::uint32_t x) {
  std::uint64_t v = x;
  v = (v | (v << 16)) & 0x0000ffff0000ffffULL;
  v = (v | (v << 8)) & 0x00ff00ff00ff00ffULL;
  v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  v = (v | (v << 2)) & 0x3333333333333333ULL;
  v = (v | (v << 1)) & 0x5555555555555555ULL;
  return v;
}

// a^2 mod P: spread to degree < 512, then fold each high coefficient k back
// through x^(256 + k) mod P.
Poly square(const Poly& a) {
  static const std::array<Poly, 256> kHigh = [] {
    std::array<Poly, 256> t{};
    t[0] = kCharPoly;  // x^256 = P - x^256 over GF(2)
    for (std::size_t k = 1; k < 256; ++k) t[k] = times_x(t[k - 1]);
    return t;
  }();
  std::uint64_t wide[8];
  for (int w = 0; w < 4; ++w) {
    wide[2 * w] = spread(static_cast<std::uint32_t>(a[w]));
    wide[2 * w + 1] = spread(static_cast<std::uint32_t>(a[w] >> 32));
  }
  Poly r = {wide[0], wide[1], wide[2], wide[3]};
  for (int w = 4; w < 8; ++w) {
    for (std::uint64_t bits = wide[w]; bits != 0; bits &= bits - 1) {
      const Poly& f = kHigh[64 * (w - 4) + std::countr_zero(bits)];
      for (int i = 0; i < 4; ++i) r[i] ^= f[i];
    }
  }
  return r;
}

}  // namespace

Rng::JumpPoly Rng::jump_poly(std::uint64_t steps) {
  Poly r = {1, 0, 0, 0};
  for (int b = 63 - std::countl_zero(steps); b >= 0; --b) {
    r = square(r);
    if ((steps >> b) & 1) r = times_x(r);
  }
  return r;
}

void Rng::apply_jump(const JumpPoly& poly) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump_word : poly) {
    for (int b = 0; b < 64; ++b) {
      if (jump_word & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_ = {s0, s1, s2, s3};
}

void Rng::jump() {
  static constexpr JumpPoly kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  apply_jump(kJump);
  has_spare_ = false;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng Rng::split() {
  jump();
  Rng child(0);
  child.s_ = s_;
  // Perturb the child so parent and child diverge immediately.
  child.s_[0] ^= 0x5851f42d4c957f2dULL;
  if ((child.s_[0] | child.s_[1] | child.s_[2] | child.s_[3]) == 0)
    child.s_[0] = 1;
  return child;
}

}  // namespace mpe
