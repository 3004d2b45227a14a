#include "stats/weibull.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using mpe::stats::ReversedWeibull;
using mpe::stats::WeibullParams;

TEST(ReversedWeibull, CdfBasicShape) {
  const ReversedWeibull g(2.0, 1.0, 10.0);
  EXPECT_DOUBLE_EQ(g.cdf(10.0), 1.0);
  EXPECT_DOUBLE_EQ(g.cdf(11.0), 1.0);
  EXPECT_NEAR(g.cdf(9.0), std::exp(-1.0), 1e-15);
  EXPECT_NEAR(g.cdf(8.0), std::exp(-4.0), 1e-15);
  EXPECT_GT(g.cdf(9.5), g.cdf(9.0));
}

TEST(ReversedWeibull, PdfZeroAboveEndpoint) {
  const ReversedWeibull g(3.0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(g.pdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(g.pdf(2.0), 0.0);
  EXPECT_GT(g.pdf(0.5), 0.0);
}

TEST(ReversedWeibull, PdfIsCdfDerivative) {
  const ReversedWeibull g(3.5, 2.0, 5.0);
  const double h = 1e-6;
  for (double x : {2.0, 3.0, 4.0, 4.8}) {
    const double numeric = (g.cdf(x + h) - g.cdf(x - h)) / (2.0 * h);
    EXPECT_NEAR(g.pdf(x), numeric, 1e-5) << "x=" << x;
  }
}

TEST(ReversedWeibull, LogPdfConsistent) {
  const ReversedWeibull g(2.5, 1.5, 3.0);
  for (double x : {0.0, 1.0, 2.0, 2.9}) {
    EXPECT_NEAR(g.log_pdf(x), std::log(g.pdf(x)), 1e-10);
  }
  EXPECT_TRUE(std::isinf(g.log_pdf(3.0)));
}

TEST(ReversedWeibull, QuantileRoundTrip) {
  const ReversedWeibull g(4.0, 0.7, 2.0);
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(g.cdf(g.quantile(q)), q, 1e-12);
  }
  EXPECT_DOUBLE_EQ(g.quantile(1.0), 2.0);  // endpoint
}

TEST(ReversedWeibull, QuantileOneIsMu) {
  for (double mu : {-5.0, 0.0, 17.5}) {
    const ReversedWeibull g(3.0, 1.0, mu);
    EXPECT_DOUBLE_EQ(g.quantile(1.0), mu);
  }
}

TEST(ReversedWeibull, MeanVarianceAgainstSamples) {
  const ReversedWeibull g(3.0, 2.0, 10.0);
  mpe::Rng rng(4242);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = g.sample(rng);
    ASSERT_LE(x, 10.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, g.mean(), 0.005);
  EXPECT_NEAR(var, g.variance(), 0.005);
}

TEST(ReversedWeibull, SigmaMatchesBeta) {
  const ReversedWeibull g(2.0, 4.0, 0.0);
  // sigma = beta^{-1/alpha} = 4^{-1/2} = 0.5.
  EXPECT_NEAR(g.sigma(), 0.5, 1e-15);
}

TEST(ReversedWeibull, RejectsBadParams) {
  EXPECT_THROW(ReversedWeibull(0.0, 1.0, 0.0), mpe::ContractViolation);
  EXPECT_THROW(ReversedWeibull(1.0, 0.0, 0.0), mpe::ContractViolation);
  const ReversedWeibull g(2.0, 1.0, 0.0);
  EXPECT_THROW(g.quantile(0.0), mpe::ContractViolation);
  EXPECT_THROW(g.quantile(1.1), mpe::ContractViolation);
}

struct WeibullCase {
  double alpha, beta, mu;
};

// Names the instantiated tests by their values, not by the struct's bytes.
void PrintTo(const WeibullCase& c, std::ostream* os) {
  *os << "alpha=" << c.alpha << " beta=" << c.beta << " mu=" << c.mu;
}

class WeibullSampleCdf : public ::testing::TestWithParam<WeibullCase> {};

TEST_P(WeibullSampleCdf, EmpiricalCdfMatchesAnalytic) {
  const auto c = GetParam();
  const ReversedWeibull g(c.alpha, c.beta, c.mu);
  mpe::Rng rng(777);
  const int n = 50000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = g.sample(rng);
  std::sort(xs.begin(), xs.end());
  // Check a few quantiles.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double emp = xs[static_cast<std::size_t>(q * n)];
    const double theo = g.quantile(q);
    const double scale = g.sigma();
    EXPECT_NEAR(emp, theo, 0.05 * scale + 1e-9) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, WeibullSampleCdf,
    ::testing::Values(WeibullCase{2.5, 1.0, 0.0}, WeibullCase{3.0, 0.1, 5.0},
                      WeibullCase{8.0, 2.0, -1.0},
                      WeibullCase{1.5, 4.0, 100.0}));

}  // namespace
