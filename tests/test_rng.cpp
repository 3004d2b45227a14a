#include "util/rng.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace {

using mpe::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.5);
  }
}

TEST(Rng, BelowIsUnbiasedAcrossSmallModulus) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  const int draws = 140000;
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.below(7)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values hit
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(draws), 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// An Rng whose next output is `x`: xoshiro256++ returns
// rotl(s0 + s3, 23) + s0, which is x for s0 = 0 and s3 = rotr(x, 23).
Rng emitting(std::uint64_t x) {
  Rng::State state;
  state.s = {0, 1, 0, (x >> 23) | (x << 41)};
  Rng rng;
  rng.set_state(state);
  return rng;
}

TEST(Rng, BernoulliThresholdMatchesBernoulliOnEveryWord) {
  const std::vector<double> ps = {0.0,
                                  1.0,
                                  0.5,
                                  std::nextafter(0.5, 0.0),
                                  std::nextafter(0.5, 1.0),
                                  1.0 / 3.0,
                                  0.3,
                                  0.7,
                                  4.9e-324,
                                  1e-300,
                                  1.0 - 0x1.0p-53};
  EXPECT_EQ(emitting(0x0123456789abcdefULL)(), 0x0123456789abcdefULL);
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(0.5), std::uint64_t{1} << 52);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::bernoulli_threshold(4.9e-324), 1u);

  std::vector<std::uint64_t> words;
  Rng source(23);
  for (int i = 0; i < 100000; ++i) words.push_back(source());
  for (double p : ps) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    for (std::uint64_t x : {(t - 1) << 11, t << 11, ~std::uint64_t{0}}) {
      words.push_back(x);
    }
  }
  for (double p : ps) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    for (std::uint64_t x : words) {
      Rng a = emitting(x);
      Rng b = emitting(x);
      ASSERT_EQ(a.bernoulli(p), b.bernoulli_below(t))
          << "p = " << p << ", word = " << x;
      ASSERT_EQ(a.state().s, b.state().s);
    }
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum2 += z * z;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalWithParams) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ExponentialMeanIsOne) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = rng.exponential();
    ASSERT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(37);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, JumpChangesSequence) {
  Rng a(41), b(41);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// advance(D) must leave exactly the state of D operator() calls: past
// degree 256 the jump polynomial is reduced modulo the characteristic
// polynomial, so the large D check the reduction constant too.
TEST(Rng, AdvanceEqualsRepeatedCalls) {
  Rng pick(97);
  std::vector<std::uint64_t> steps = {0, 1, 63, 64, 65, 255, 256, 257,
                                      (1ULL << 20) + 3};
  for (int i = 0; i < 3; ++i) steps.push_back(pick.below(1ULL << 18));
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    for (std::uint64_t d : steps) {
      Rng stepped(seed);
      stepped.normal();  // leaves a spare normal, which advance keeps
      Rng advanced = stepped;
      for (std::uint64_t k = 0; k < d; ++k) stepped();
      advanced.advance(d);
      EXPECT_EQ(advanced.state().s, stepped.state().s)
          << "seed " << seed << ", " << d << " steps";
      EXPECT_TRUE(advanced.state().has_spare);
      EXPECT_EQ(advanced(), stepped());
    }
  }
}

// Jumps compose: advancing by a then b equals advancing by a + b, here for
// distances far beyond any loop.
TEST(Rng, AdvanceComposes) {
  const std::uint64_t a = 0x0123456789abcdefULL;
  const std::uint64_t b = 0x00fedcba98765432ULL;
  Rng two_jumps(5), one_jump(5);
  two_jumps.advance(a);
  two_jumps.advance(b);
  one_jump.advance(a + b);
  EXPECT_EQ(two_jumps.state().s, one_jump.state().s);
  Rng::State state = one_jump.state();
  one_jump.apply_jump(Rng::jump_poly(1));
  Rng single;
  single.set_state(state);
  single();
  EXPECT_EQ(one_jump.state().s, single.state().s);
}

TEST(Rng, RejectsInvalidArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), mpe::ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.5), mpe::ContractViolation);
  EXPECT_THROW(rng.uniform(2.0, 1.0), mpe::ContractViolation);
  EXPECT_THROW(rng.range(3, 2), mpe::ContractViolation);
}

class RngChiSquare : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngChiSquare, ByteHistogramLooksUniform) {
  Rng rng(GetParam());
  std::vector<int> counts(256, 0);
  const int draws = 65536;
  for (int i = 0; i < draws / 8; ++i) {
    auto x = rng();
    for (int b = 0; b < 8; ++b) {
      ++counts[(x >> (8 * b)) & 0xff];
    }
  }
  const double expected = draws / 256.0;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, sd ~22.6. Allow +/- 6 sigma.
  EXPECT_GT(chi2, 255.0 - 6 * 22.6);
  EXPECT_LT(chi2, 255.0 + 6 * 22.6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngChiSquare,
                         ::testing::Values(1, 12345, 0xdeadbeef, 987654321));

}  // namespace
