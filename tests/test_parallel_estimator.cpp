// Determinism contract of the estimator: identical results for every
// thread count and for an external pool.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "gen/trees.hpp"
#include "maxpower/estimator.hpp"
#include "stats/weibull.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
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

void expect_identical(const mp::EstimationResult& a,
                      const mp::EstimationResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.ci.lower, b.ci.lower);
  EXPECT_EQ(a.ci.upper, b.ci.upper);
  EXPECT_EQ(a.relative_error_bound, b.relative_error_bound);
  EXPECT_EQ(a.units_used, b.units_used);
  EXPECT_EQ(a.hyper_samples, b.hyper_samples);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.degenerate_fits, b.degenerate_fits);
  EXPECT_EQ(a.diagnostics.degenerate_fits, b.diagnostics.degenerate_fits);
  EXPECT_EQ(a.diagnostics.discarded_hyper_samples,
            b.diagnostics.discarded_hyper_samples);
  ASSERT_EQ(a.hyper_values.size(), b.hyper_values.size());
  for (std::size_t i = 0; i < a.hyper_values.size(); ++i) {
    EXPECT_EQ(a.hyper_values[i], b.hyper_values[i]) << "hyper value " << i;
  }
}

TEST(ParallelEstimator, BitIdenticalAcrossThreadCounts) {
  auto pop = weibull_population(40000, 31);
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 77;
  mp::ParallelOptions serial;  // threads = 1
  const auto base = mp::estimate_max_power(pop, opt, seed, serial);
  EXPECT_TRUE(base.converged);
  for (unsigned threads : {2u, 8u}) {
    mp::ParallelOptions par;
    par.threads = threads;
    const auto r = mp::estimate_max_power(pop, opt, seed, par);
    SCOPED_TRACE(threads);
    expect_identical(base, r);
  }
}

TEST(ParallelEstimator, BitIdenticalWithExternalPool) {
  auto pop = weibull_population(40000, 33);
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 5;
  const auto base = mp::estimate_max_power(pop, opt, seed);
  mpe::util::ThreadPool pool(3);
  mp::ParallelOptions par;
  par.pool = &pool;
  const auto r = mp::estimate_max_power(pop, opt, seed, par);
  expect_identical(base, r);
}

TEST(ParallelEstimator, BitIdenticalUnderBootstrapInterval) {
  // The bootstrap stopping rule consumes its own RNG stream; speculation
  // must not perturb it.
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.interval = mp::IntervalKind::kBootstrap;
  const std::uint64_t seed = 91;
  const auto base = mp::estimate_max_power(pop, opt, seed);
  mp::ParallelOptions par;
  par.threads = 4;
  const auto r = mp::estimate_max_power(pop, opt, seed, par);
  expect_identical(base, r);
}

TEST(ParallelEstimator, NonConvergedRunsIdenticalAcrossThreadCounts) {
  auto pop = weibull_population(20000, 37);
  mp::EstimatorOptions opt;
  opt.epsilon = 1e-9;  // unattainable
  opt.max_hyper_samples = 7;
  const std::uint64_t seed = 13;
  const auto base = mp::estimate_max_power(pop, opt, seed);
  EXPECT_FALSE(base.converged);
  EXPECT_EQ(base.hyper_samples, 7u);
  for (unsigned threads : {2u, 8u}) {
    mp::ParallelOptions par;
    par.threads = threads;
    const auto r = mp::estimate_max_power(pop, opt, seed, par);
    SCOPED_TRACE(threads);
    expect_identical(base, r);
  }
}

TEST(ParallelEstimator, StreamingBitParallelIdenticalAcrossThreadCounts) {
  // Zero-delay streaming draws run bit-parallel on the compiled tape and are
  // concurrent-safe (per-call simulator checkout), so the wave really runs
  // in parallel — and must still be bit-identical to the single-threaded
  // pipeline.
  auto nl = mpe::gen::parity_tree(16, 2);
  mpe::sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = mpe::sim::DelayModel::kZero;
  mpe::sim::CyclePowerEvaluator eval(nl, eval_opt);
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mpe::vec::StreamingPopulation pop(gen, eval);
  ASSERT_TRUE(pop.concurrent_draw_safe());
  mp::EstimatorOptions opt;
  opt.epsilon = 0.10;
  opt.max_hyper_samples = 12;
  const std::uint64_t seed = 3;
  const auto base = mp::estimate_max_power(pop, opt, seed);
  for (unsigned threads : {2u, 8u}) {
    mp::ParallelOptions par;
    par.threads = threads;
    const auto r = mp::estimate_max_power(pop, opt, seed, par);
    SCOPED_TRACE(threads);
    expect_identical(base, r);
  }
}

/// Draws scalar through a streaming population's one shared evaluator:
/// not concurrent-draw-safe (the Population defaults).
class ScalarOnlyPopulation final : public mpe::vec::Population {
 public:
  explicit ScalarOnlyPopulation(mpe::vec::StreamingPopulation& inner)
      : inner_(inner) {}
  double draw(mpe::Rng& rng) override { return inner_.draw(rng); }
  std::optional<std::size_t> size() const override { return std::nullopt; }
  std::string description() const override { return inner_.description(); }

 private:
  mpe::vec::StreamingPopulation& inner_;
};

TEST(ParallelEstimator, NonConcurrentPopulationFallsBackDeterministically) {
  // A population that is not concurrent-draw-safe: the pipeline must
  // serialize the wave and still produce thread-count-independent results.
  auto nl = mpe::gen::parity_tree(16, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mpe::vec::StreamingPopulation streaming(gen, eval);
  ScalarOnlyPopulation pop(streaming);
  ASSERT_FALSE(pop.concurrent_draw_safe());
  mp::EstimatorOptions opt;
  opt.epsilon = 0.10;
  opt.max_hyper_samples = 8;
  const std::uint64_t seed = 3;
  const auto base = mp::estimate_max_power(pop, opt, seed);
  mp::ParallelOptions par;
  par.threads = 4;
  const auto r = mp::estimate_max_power(pop, opt, seed, par);
  expect_identical(base, r);
}

TEST(ParallelEstimator, ParallelRunsAreAccurate) {
  auto pop = weibull_population(40000, 41);
  mp::EstimatorOptions opt;
  mp::ParallelOptions par;
  par.threads = 0;  // hardware concurrency
  int within = 0;
  const int reps = 20;
  for (int i = 0; i < reps; ++i) {
    const auto r =
        mp::estimate_max_power(pop, opt, 1000 + static_cast<unsigned>(i),
                               par);
    const double rel =
        std::fabs(r.estimate - pop.true_max()) / pop.true_max();
    if (rel <= 0.08) ++within;
  }
  EXPECT_GE(within, reps * 80 / 100);
}

}  // namespace
