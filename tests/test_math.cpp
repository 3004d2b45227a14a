#include "util/math.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/contracts.hpp"

namespace {

namespace math = mpe::math;

TEST(LogBeta, MatchesKnownValues) {
  // B(1,1) = 1, B(2,3) = 1/12, B(0.5,0.5) = pi.
  EXPECT_NEAR(math::log_beta(1, 1), 0.0, 1e-12);
  EXPECT_NEAR(math::log_beta(2, 3), std::log(1.0 / 12.0), 1e-12);
  EXPECT_NEAR(math::log_beta(0.5, 0.5), std::log(M_PI), 1e-12);
}

TEST(IncompleteBeta, EndpointsAndSymmetry) {
  EXPECT_DOUBLE_EQ(math::incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(math::incomplete_beta(2.0, 3.0, 1.0), 1.0);
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(math::incomplete_beta(2.5, 1.5, x),
                1.0 - math::incomplete_beta(1.5, 2.5, 1.0 - x), 1e-12);
  }
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1,1) = x.
  for (double x : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_NEAR(math::incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(IncompleteBeta, HalfIntegerCase) {
  // I_x(0.5, 0.5) = (2/pi) asin(sqrt(x)).
  for (double x : {0.1, 0.4, 0.8}) {
    EXPECT_NEAR(math::incomplete_beta(0.5, 0.5, x),
                2.0 / M_PI * std::asin(std::sqrt(x)), 1e-10);
  }
}

TEST(ErfInv, RoundTrip) {
  for (double y : {-0.999, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(std::erf(math::erf_inv(y)), y, 1e-12) << "y=" << y;
  }
}

TEST(ErfInv, ExtremeTails) {
  for (double y : {-1.0 + 1e-12, 1.0 - 1e-12}) {
    const double x = math::erf_inv(y);
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_NEAR(std::erf(x), y, 1e-13);
  }
}

TEST(ErfcInv, MatchesErfInv) {
  for (double y : {0.01, 0.5, 1.0, 1.5, 1.99}) {
    EXPECT_NEAR(math::erfc_inv(y), math::erf_inv(1.0 - y), 1e-14);
  }
}

TEST(BrentRoot, FindsPolynomialRoot) {
  const auto r = math::brent_root([](double x) { return x * x * x - 2.0; },
                                  0.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::cbrt(2.0), 1e-10);
}

TEST(BrentRoot, AcceptsRootAtEndpoint) {
  const auto r = math::brent_root([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(BrentRoot, RequiresSignChange) {
  EXPECT_THROW(math::brent_root([](double x) { return x * x + 1.0; },
                                -1.0, 1.0),
               mpe::ContractViolation);
}

TEST(BrentRoot, TranscendentalRoot) {
  const auto r = math::brent_root(
      [](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-10);
}

TEST(BrentRoot, KnownEndpointValuesAreNotReevaluated) {
  int calls = 0;
  auto f = [&](double x) {
    ++calls;
    return std::cos(x) - x;
  };
  const auto full = math::brent_root(f, 0.0, 1.0, 1e-10);
  const int full_calls = calls;
  calls = 0;
  const auto seeded = math::brent_root(f, 0.0, 1.0, f(0.0), f(1.0), 1e-10);
  EXPECT_EQ(seeded.x, full.x);
  EXPECT_EQ(seeded.f, full.f);
  EXPECT_EQ(seeded.iterations, full.iterations);
  EXPECT_EQ(calls, full_calls);  // the two endpoint calls above included
}

TEST(GoldenMinimize, FindsParabolaMinimum) {
  const auto r = math::golden_minimize(
      [](double x) { return (x - 1.7) * (x - 1.7) + 3.0; }, -10.0, 10.0);
  EXPECT_NEAR(r.x, 1.7, 1e-6);
  EXPECT_NEAR(r.f, 3.0, 1e-10);
}

TEST(GoldenMinimize, AsymmetricFunction) {
  const auto r = math::golden_minimize(
      [](double x) { return std::exp(x) - 2.0 * x; }, -5.0, 5.0);
  EXPECT_NEAR(r.x, std::log(2.0), 1e-6);
}

TEST(BracketMinimum, ExpandsToFindInteriorMin) {
  double lo = 5.0, mid = 6.0, hi = 7.0;  // min at 0 is left of the bracket
  const bool ok = math::bracket_minimum(
      [](double x) { return x * x; }, lo, mid, hi);
  EXPECT_TRUE(ok);
  EXPECT_LE(lo, 0.0);
  EXPECT_GE(hi, 0.0);
}

}  // namespace
