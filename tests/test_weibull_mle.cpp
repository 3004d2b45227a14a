#include "evt/weibull_mle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "fit_corpus.hpp"
#include "stats/descriptive.hpp"
#include "stats/weibull.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace evt = mpe::evt;
using mpe::stats::ReversedWeibull;
using mpe::stats::WeibullParams;

std::vector<double> draw(const WeibullParams& p, int n, std::uint64_t seed) {
  const ReversedWeibull g(p);
  mpe::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = g.sample(rng);
  return xs;
}

TEST(WeibullLogLikelihood, MatchesManualComputation) {
  const WeibullParams p{2.0, 1.0, 3.0};
  const std::vector<double> xs = {1.0, 2.0};
  // log g(x) = log(alpha*beta) + (alpha-1) log(mu-x) - beta (mu-x)^alpha
  const double expected =
      (std::log(2.0) + std::log(2.0) - 4.0) + (std::log(2.0) + 0.0 - 1.0);
  EXPECT_NEAR(evt::weibull_log_likelihood(xs, p), expected, 1e-12);
}

TEST(WeibullLogLikelihood, InfeasibleGivesMinusInf) {
  const WeibullParams p{2.0, 1.0, 3.0};
  EXPECT_TRUE(std::isinf(
      evt::weibull_log_likelihood(std::vector<double>{3.0}, p)));
  EXPECT_TRUE(std::isinf(
      evt::weibull_log_likelihood(std::vector<double>{4.0}, p)));
}

TEST(FixedMuFit, RecoversShapeAndScale) {
  const WeibullParams truth{3.0, 1.0, 5.0};
  const auto xs = draw(truth, 5000, 17);
  const auto fit = evt::fit_weibull_mle_fixed_mu(xs, truth.mu);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.alpha, truth.alpha, 0.12);
  EXPECT_NEAR(fit.beta, truth.beta, 0.1);
}

TEST(FixedMuFit, InfeasibleMuReportsFailure) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const auto fit = evt::fit_weibull_mle_fixed_mu(xs, 2.5);  // below max
  EXPECT_FALSE(fit.converged);
}

TEST(FixedMuFit, MaximizesLikelihoodOverAlphaBeta) {
  // At the fitted (alpha, beta) the likelihood should beat perturbations.
  const WeibullParams truth{2.5, 0.8, 2.0};
  const auto xs = draw(truth, 300, 5);
  const double mu = 2.05;
  const auto fit = evt::fit_weibull_mle_fixed_mu(xs, mu);
  ASSERT_TRUE(fit.converged);
  const double ll_fit = evt::weibull_log_likelihood(
      xs, WeibullParams{fit.alpha, fit.beta, mu});
  EXPECT_NEAR(ll_fit, fit.log_likelihood, 1e-6);
  for (double da : {-0.1, 0.1}) {
    const double ll = evt::weibull_log_likelihood(
        xs, WeibullParams{fit.alpha + da, fit.beta, mu});
    EXPECT_LE(ll, ll_fit + 1e-9);
  }
  for (double db : {-0.05, 0.05}) {
    const double ll = evt::weibull_log_likelihood(
        xs, WeibullParams{fit.alpha, fit.beta + db, mu});
    EXPECT_LE(ll, ll_fit + 1e-9);
  }
}

TEST(WeibullMle, RecoversParametersLargeSample) {
  const WeibullParams truth{3.5, 1.2, 10.0};
  const auto xs = draw(truth, 3000, 23);
  const auto fit = evt::fit_weibull_mle(xs);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params.mu, truth.mu, 0.1);
  EXPECT_NEAR(fit.params.alpha, truth.alpha, 0.4);
  EXPECT_FALSE(fit.alpha_below_two);
}

TEST(WeibullMle, SmallSampleEndpointAboveSampleMax) {
  const WeibullParams truth{3.0, 1.0, 1.0};
  const auto xs = draw(truth, 10, 31);
  const auto fit = evt::fit_weibull_mle(xs);
  const double xmax = *std::max_element(xs.begin(), xs.end());
  EXPECT_GT(fit.params.mu, xmax);
}

TEST(WeibullMle, SmallSampleBiasIsModest) {
  // Average endpoint estimate over many m=10 fits should sit near the truth
  // (Theorem 3 promises unbiasedness only asymptotically; at m=10 the
  // ridge-stabilized fit trades a modest downward pull for bounded
  // variance, so allow a fraction of the distribution scale sigma = 1).
  const WeibullParams truth{4.0, 1.0, 1.0};
  double sum = 0.0;
  const int reps = 150;
  for (int r = 0; r < reps; ++r) {
    const auto xs = draw(truth, 10, 1000 + r);
    sum += evt::fit_weibull_mle(xs).params.mu;
  }
  EXPECT_NEAR(sum / reps, truth.mu, 0.30);
}

TEST(WeibullMle, DegenerateConstantSampleFlagged) {
  const std::vector<double> xs = {2.0, 2.0, 2.0, 2.0};
  const auto fit = evt::fit_weibull_mle(xs);
  EXPECT_FALSE(fit.converged);
  EXPECT_DOUBLE_EQ(fit.params.mu, 2.0);
}

TEST(WeibullMle, GumbelDataPushesEndpointOut) {
  // Gumbel-tailed data (no finite endpoint): at a sample size where the
  // unbounded tail is statistically visible, the *raw* MLE should show the
  // Weibull -> Gumbel degeneracy signature — endpoint stretched far beyond
  // the sample, the search bound hit, or a near-Gumbel (large) shape.
  mpe::Rng rng(77);
  std::vector<double> xs(500);
  for (auto& x : xs) x = -std::log(-std::log(rng.uniform(1e-12, 1.0)));
  evt::WeibullMleOptions opt;
  opt.ridge_tolerance = 0.0;  // raw MLE
  const auto fit = evt::fit_weibull_mle(xs, opt);
  const double xmax = *std::max_element(xs.begin(), xs.end());
  const double xmin = *std::min_element(xs.begin(), xs.end());
  EXPECT_TRUE(fit.mu_at_upper_bound ||
              (fit.params.mu - xmax) > 0.5 * (xmax - xmin) ||
              fit.params.alpha > 20.0)
      << "mu=" << fit.params.mu << " alpha=" << fit.params.alpha;
  EXPECT_FALSE(fit.ridge_fallback);
}

TEST(WeibullMle, RejectsTooFewPoints) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(evt::fit_weibull_mle(xs), mpe::ContractViolation);
}

TEST(WeibullMle, LikelihoodAtOptimumBeatsNeighborhood) {
  const WeibullParams truth{3.0, 1.0, 0.0};
  const auto xs = draw(truth, 200, 3);
  const auto fit = evt::fit_weibull_mle(xs);
  const double ll_hat = evt::weibull_log_likelihood(xs, fit.params);
  // Perturb mu both ways (staying feasible) and re-fit alpha/beta: profile
  // likelihood at the chosen mu must be at least as high.
  const double xmax = *std::max_element(xs.begin(), xs.end());
  for (double factor : {0.5, 2.0, 8.0}) {
    const double mu_alt = xmax + (fit.params.mu - xmax) * factor;
    const auto alt = evt::fit_weibull_mle_fixed_mu(xs, mu_alt);
    EXPECT_LE(alt.log_likelihood, ll_hat + 1e-6) << "factor=" << factor;
  }
}

TEST(WeibullMle, WarmStartedShapeSolveMatchesColdSolve) {
  // Inside a fit each shape solve starts from a neighbouring endpoint's
  // shape; the exposed fixed-endpoint solve starts cold from a moment
  // estimate. Both must land on the same root at the fitted endpoint.
  int compared = 0;
  for (const auto& maxima : fit_corpus::full_corpus()) {
    const auto fit = evt::fit_weibull_mle(maxima);
    const auto cold = evt::fit_weibull_mle_fixed_mu(maxima, fit.params.mu);
    if (!cold.converged) continue;  // shape pinned at a bound: no root
    ++compared;
    EXPECT_NEAR(fit.params.alpha, cold.alpha, 1e-9 * cold.alpha)
        << "mu " << fit.params.mu;
  }
  EXPECT_GT(compared, 5000);
}

TEST(WeibullMle, ShapeEvaluationBudget) {
  // The fit's cost is its shape evaluations (m exp() calls each). The
  // earlier cold-started solver spent about 2 100 per fit; the warm-started
  // one about 300. A mean above 500 over the corpus means the solver slid
  // back toward the old cost.
  evt::WeibullMleOptions raw;
  raw.ridge_tolerance = 0.0;
  double evals = 0.0;
  double fits = 0.0;
  for (const auto& maxima : fit_corpus::full_corpus()) {
    for (const auto& opt : {evt::WeibullMleOptions{}, raw}) {
      const auto fit = evt::fit_weibull_mle(maxima, opt);
      EXPECT_GE(fit.shape_evaluations, fit.profile_evaluations);
      evals += fit.shape_evaluations;
      fits += 1.0;
    }
  }
  EXPECT_LE(evals / fits, 500.0);
}

struct MleCase {
  double alpha, beta, mu;
  int m;
};

// Names the instantiated tests by their values: without it gtest prints the
// struct's raw bytes, padding included, so the test IDs change from build
// to build.
void PrintTo(const MleCase& c, std::ostream* os) {
  *os << "alpha=" << c.alpha << " beta=" << c.beta << " mu=" << c.mu
      << " m=" << c.m;
}

class MleRecovery : public ::testing::TestWithParam<MleCase> {};

TEST_P(MleRecovery, EndpointWithinTolerance) {
  const auto c = GetParam();
  const WeibullParams truth{c.alpha, c.beta, c.mu};
  const ReversedWeibull g(truth);
  const double scale = g.sigma();
  // Average over several independent fits to damp sampling noise.
  double err_sum = 0.0;
  const int reps = 30;
  for (int r = 0; r < reps; ++r) {
    const auto xs = draw(truth, c.m, 555 + 7 * r);
    const auto fit = evt::fit_weibull_mle(xs);
    err_sum += std::fabs(fit.params.mu - truth.mu);
  }
  const double avg_err = err_sum / reps;
  // Larger m must estimate the endpoint to a fraction of the scale.
  const double tol = c.m >= 1000 ? 0.2 * scale : 0.8 * scale;
  EXPECT_LT(avg_err, tol) << "alpha=" << c.alpha << " m=" << c.m;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MleRecovery,
    ::testing::Values(MleCase{2.5, 1.0, 1.0, 50}, MleCase{3.0, 1.0, 1.0, 1000},
                      MleCase{5.0, 2.0, 10.0, 50},
                      MleCase{5.0, 2.0, 10.0, 1000},
                      MleCase{8.0, 0.5, -3.0, 1000}));

}  // namespace
