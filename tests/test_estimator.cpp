#include "maxpower/estimator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "stats/weibull.hpp"
#include "util/contracts.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;

mpe::vec::FinitePopulation weibull_population(std::size_t size,
                                              std::uint64_t seed,
                                              double alpha = 3.0,
                                              double mu = 10.0) {
  const mpe::stats::ReversedWeibull g(alpha, 1.0, mu);
  mpe::Rng rng(seed);
  std::vector<double> vals(size);
  for (auto& v : vals) v = g.sample(rng);
  return mpe::vec::FinitePopulation(std::move(vals), "synthetic weibull");
}

TEST(Estimator, ConvergesOnSyntheticPopulation) {
  auto pop = weibull_population(40000, 1);
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 2;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.relative_error_bound, opt.epsilon);
  EXPECT_EQ(r.units_used, r.hyper_samples * 300u);
  EXPECT_GE(r.hyper_samples, 2u);
  EXPECT_EQ(r.hyper_values.size(), r.hyper_samples);
}

TEST(Estimator, EstimateWithinErrorBandMostOfTheTime) {
  // 90% confidence at 5% error: over many runs the estimate should land
  // within ~5% of the truth in the vast majority of cases.
  auto pop = weibull_population(40000, 3);
  mp::EstimatorOptions opt;
  int within = 0;
  const int reps = 60;
  for (int i = 0; i < reps; ++i) {
    const auto r = mp::estimate_max_power(pop, opt, mpe::stream_seed(4, i));
    const double rel_err =
        std::fabs(r.estimate - pop.true_max()) / pop.true_max();
    if (rel_err <= 0.08) ++within;  // small slack over the 5% target
  }
  EXPECT_GE(within, reps * 80 / 100);
}

TEST(Estimator, UnitCountsInPaperRange) {
  // The paper's Table 1 reports 600..5400 units (k in [2, 18]) per run.
  auto pop = weibull_population(40000, 5);
  mp::EstimatorOptions opt;
  for (int i = 0; i < 20; ++i) {
    const auto r = mp::estimate_max_power(pop, opt, mpe::stream_seed(6, i));
    EXPECT_GE(r.units_used, 600u);
    EXPECT_LE(r.units_used, 30000u);
  }
}

TEST(Estimator, TighterEpsilonNeedsMoreUnits) {
  auto pop = weibull_population(40000, 7);
  mp::EstimatorOptions loose;
  loose.epsilon = 0.10;
  mp::EstimatorOptions tight;
  tight.epsilon = 0.02;
  std::size_t units_loose = 0, units_tight = 0;
  for (int i = 0; i < 15; ++i) {
    const std::uint64_t seed = mpe::stream_seed(8, i);
    units_loose += mp::estimate_max_power(pop, loose, seed).units_used;
    units_tight += mp::estimate_max_power(pop, tight, seed).units_used;
  }
  EXPECT_GT(units_tight, units_loose);
}

TEST(Estimator, HigherConfidenceWidensInterval) {
  auto pop = weibull_population(40000, 9);
  mp::EstimatorOptions low;
  low.confidence = 0.80;
  low.max_hyper_samples = 6;  // force same k for comparison
  low.epsilon = 1e-9;         // never converges early
  mp::EstimatorOptions high = low;
  high.confidence = 0.99;
  const std::uint64_t seed = 10;
  const auto a = mp::estimate_max_power(pop, low, seed);
  const auto b = mp::estimate_max_power(pop, high, seed);
  EXPECT_GT(b.ci.half_width, a.ci.half_width);
}

TEST(Estimator, NonConvergenceReportedHonestly) {
  auto pop = weibull_population(5000, 11);
  mp::EstimatorOptions opt;
  opt.epsilon = 1e-9;  // unattainable
  opt.max_hyper_samples = 5;
  const std::uint64_t seed = 12;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.hyper_samples, 5u);
  EXPECT_GT(r.relative_error_bound, opt.epsilon);
  EXPECT_GT(r.estimate, 0.0);  // still reports the best available estimate
}

TEST(Estimator, DeterministicGivenSeed) {
  auto pop = weibull_population(20000, 13);
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 14;
  const auto a = mp::estimate_max_power(pop, opt, seed);
  const auto b = mp::estimate_max_power(pop, opt, seed);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.units_used, b.units_used);
}

TEST(Estimator, WorksAcrossShapeParameters) {
  for (double alpha : {2.5, 4.0, 6.0}) {
    auto pop = weibull_population(30000, 15, alpha, 5.0);
    mp::EstimatorOptions opt;
    const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{16});
    const double rel_err =
        std::fabs(r.estimate - pop.true_max()) / pop.true_max();
    EXPECT_LT(rel_err, 0.15) << "alpha=" << alpha;
  }
}

TEST(Estimator, BootstrapIntervalModeConverges) {
  auto pop = weibull_population(30000, 21);
  mp::EstimatorOptions opt;
  opt.interval = mp::IntervalKind::kBootstrap;
  const std::uint64_t seed = 22;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_TRUE(r.converged);
  const double rel =
      std::fabs(r.estimate - pop.true_max()) / pop.true_max();
  EXPECT_LT(rel, 0.15);
  // Bootstrap intervals need not be symmetric around the mean.
  EXPECT_LE(r.ci.lower, r.estimate);
  EXPECT_GE(r.ci.upper, r.estimate);
}

TEST(Estimator, BootstrapAndTTrackEachOther) {
  auto pop = weibull_population(30000, 23);
  mp::EstimatorOptions t_opt;
  mp::EstimatorOptions b_opt;
  b_opt.interval = mp::IntervalKind::kBootstrap;
  const std::uint64_t seed = 24;
  const auto rt = mp::estimate_max_power(pop, t_opt, seed);
  const auto rb = mp::estimate_max_power(pop, b_opt, seed);
  // Same population, same seed stream: estimates agree to within a few
  // percent even though the stopping rules differ.
  EXPECT_NEAR(rb.estimate, rt.estimate, 0.1 * rt.estimate);
}

// --- Graceful degradation ---------------------------------------------------

TEST(Estimator, ConstantPopulationConvergesToCommonValueFlagged) {
  // Zero-spread population: every hyper-sample is constant, the fit is
  // skipped, and the mean of identical values converges trivially — the run
  // must finish with the common value and loud diagnostics, not NaN.
  mpe::vec::FinitePopulation pop(std::vector<double>(500, 7.5), "stuck");
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 31;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.estimate, 7.5);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kConverged);
  EXPECT_GT(r.diagnostics.constant_samples, 0u);
  EXPECT_GT(r.diagnostics.degenerate_fits, 0u);
}

TEST(Estimator, SmallPopulationFlaggedButStillEstimates) {
  // 100 < n*m = 300: the samples overlap heavily, so the result must carry
  // the small-population warning while still producing a finite estimate.
  auto pop = weibull_population(100, 33);
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 34;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_TRUE(r.diagnostics.small_population);
  EXPECT_TRUE(std::isfinite(r.estimate));
  EXPECT_FALSE(r.diagnostics.records.empty());
}

TEST(Estimator, DiscardRedrawExhaustsBudgetOnHopelessPopulation) {
  // Every hyper-sample from a constant population is degenerate, so the
  // redraw policy can never accept one: the run must stop at the redraw
  // budget with an explicit data-fault stop reason — not loop forever.
  mpe::vec::FinitePopulation pop(std::vector<double>(500, 3.0), "stuck");
  mp::EstimatorOptions opt;
  opt.hyper.degenerate_policy = mp::DegenerateFitPolicy::kDiscardRedraw;
  opt.max_hyper_samples = 4;
  opt.max_redraws = 2;
  const std::uint64_t seed = 37;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.hyper_samples, 0u);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kDataFault);
  EXPECT_EQ(r.diagnostics.discarded_hyper_samples, 6u);  // max + redraws
}

TEST(Estimator, DiscardRedrawStillConvergesOnHealthyPopulation) {
  auto pop = weibull_population(40000, 39);
  mp::EstimatorOptions opt;
  opt.hyper.degenerate_policy = mp::DegenerateFitPolicy::kDiscardRedraw;
  const std::uint64_t seed = 40;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(std::isfinite(r.estimate));
}

TEST(Estimator, ExpiredDeadlineReturnsPartialResult) {
  auto pop = weibull_population(20000, 41);
  mp::EstimatorOptions opt;
  opt.control.deadline = mpe::util::Deadline::after(std::chrono::nanoseconds{0});
  const std::uint64_t seed = 42;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kDeadlineExceeded);
  EXPECT_EQ(r.hyper_samples, 0u);
  EXPECT_FALSE(r.diagnostics.records.empty());
}

TEST(Estimator, PreCancelledRunReturnsImmediately) {
  auto pop = weibull_population(20000, 43);
  mp::EstimatorOptions opt;
  opt.control.cancel = mpe::util::CancellationToken::create();
  opt.control.cancel.request_stop();
  const std::uint64_t seed = 44;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kCancelled);
  EXPECT_EQ(r.hyper_samples, 0u);
}

TEST(Estimator, ParallelDeadlineReturnsPartialResult) {
  auto pop = weibull_population(20000, 45);
  mp::EstimatorOptions opt;
  opt.control.deadline = mpe::util::Deadline::after(std::chrono::nanoseconds{0});
  mp::ParallelOptions par;
  par.threads = 4;
  const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{46}, par);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kDeadlineExceeded);
}

TEST(Estimator, ParallelCancellationReturnsPartialResult) {
  auto pop = weibull_population(20000, 47);
  mp::EstimatorOptions opt;
  opt.control.cancel = mpe::util::CancellationToken::create();
  opt.control.cancel.request_stop();
  mp::ParallelOptions par;
  par.threads = 4;
  const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{48}, par);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kCancelled);
  EXPECT_EQ(r.hyper_samples, 0u);
}

TEST(Estimator, PartlyPoisonedPopulationStillConverges) {
  mpe::Rng gen(49);
  std::vector<double> vals(30000);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = (i % 20 == 19) ? std::numeric_limits<double>::quiet_NaN()
                             : 10.0 - std::pow(gen.uniform(0.0, 1.0), 1.5);
  }
  mpe::vec::FinitePopulation pop(std::move(vals), "partly poisoned");
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 50;
  const auto r = mp::estimate_max_power(pop, opt, seed);
  EXPECT_TRUE(std::isfinite(r.estimate));
  EXPECT_GT(r.diagnostics.nonfinite_units, 0u);
  for (double v : r.hyper_values) EXPECT_TRUE(std::isfinite(v));
}

TEST(Estimator, ContractChecks) {
  auto pop = weibull_population(1000, 17);
  const std::uint64_t seed = 18;
  mp::EstimatorOptions bad;
  bad.epsilon = 0.0;
  EXPECT_THROW(mp::estimate_max_power(pop, bad, seed),
               mpe::ContractViolation);
  bad = {};
  bad.min_hyper_samples = 1;
  EXPECT_THROW(mp::estimate_max_power(pop, bad, seed),
               mpe::ContractViolation);
  bad = {};
  bad.max_hyper_samples = 1;
  EXPECT_THROW(mp::estimate_max_power(pop, bad, seed),
               mpe::ContractViolation);
}

}  // namespace
