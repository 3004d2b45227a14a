// Strategy-seam tests for the layered estimation engine: equivalence with
// estimate_max_power on both paper input categories, custom
// user-supplied StoppingRule / TailFitter through the public API, and the
// strategy-aware checkpoint fingerprint.
#include "maxpower/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen/presets.hpp"
#include "maxpower/checkpoint.hpp"
#include "maxpower/estimator.hpp"
#include "maxpower/stopping.hpp"
#include "maxpower/tail_fitter.hpp"
#include "maxpower/unit_source.hpp"
#include "sim/power_eval.hpp"
#include "stats/weibull.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"
#include "vectors/generators.hpp"
#include "vectors/markov.hpp"
#include "vectors/population.hpp"
#include "vectors/power_db.hpp"

namespace {

namespace mp = mpe::maxpower;
namespace vec = mpe::vec;

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

void expect_bit_identical(const mp::EstimationResult& a,
                          const mp::EstimationResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.hyper_samples, b.hyper_samples);
  EXPECT_EQ(a.units_used, b.units_used);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.relative_error_bound, b.relative_error_bound);
  EXPECT_EQ(a.ci.half_width, b.ci.half_width);
  ASSERT_EQ(a.hyper_values.size(), b.hyper_values.size());
  for (std::size_t i = 0; i < a.hyper_values.size(); ++i) {
    EXPECT_EQ(a.hyper_values[i], b.hyper_values[i]) << "hyper value " << i;
  }
}

// --- Equivalence with estimate_max_power ----------------------------------

TEST(Engine, DefaultCompositionMatchesLegacyParallel) {
  auto pop = weibull_population(20000, 102);
  mp::EstimatorOptions opt;
  for (unsigned threads : {1u, 2u, 8u}) {
    mp::ParallelOptions par;
    par.threads = threads;
    const auto legacy = mp::estimate_max_power(pop, opt, 77, par);
    const mp::Engine engine(mp::EngineConfig{opt, nullptr, {}});
    const auto ours = engine.run(pop, 77, par);
    expect_bit_identical(legacy, ours);
  }
}

TEST(Engine, EquivalenceOnUnconstrainedStreamingPopulation) {
  // Paper category I.1: unconstrained sequences, units generated on the
  // fly. Engine and legacy must agree bit-for-bit on the same stream.
  const auto nl = mpe::gen::build_preset("c432", 9);
  mpe::sim::CyclePowerEvaluator e1(nl), e2(nl);
  const vec::TransitionProbPairGenerator g(nl.num_inputs(), 0.5);
  vec::StreamingPopulation p1(g, e1), p2(g, e2);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.10;
  opt.max_hyper_samples = 12;
  const auto legacy = mp::estimate_max_power(p1, opt, 21);
  const mp::Engine engine(mp::EngineConfig{opt, nullptr, {}});
  const auto ours = engine.run(p2, 21);
  expect_bit_identical(legacy, ours);
}

TEST(Engine, EquivalenceOnConstrainedMarkovPopulation) {
  // Paper category I.2: constrained (Markov) input statistics via a
  // pre-built power database.
  const auto nl = mpe::gen::build_preset("c432", 5);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::MarkovPairGenerator gen(nl.num_inputs(), 0.2, 0.6);
  vec::PowerDbOptions db;
  db.population_size = 4000;
  mpe::Rng build_rng(1);
  auto pop = vec::build_power_database(gen, eval, db, build_rng);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.08;
  const auto legacy = mp::estimate_max_power(pop, opt, 2);
  const mp::Engine engine(mp::EngineConfig{opt, nullptr, {}});
  const auto ours = engine.run(pop, 2);
  expect_bit_identical(legacy, ours);
}

// --- Custom strategies through the public API -----------------------------

// Stops unconditionally after a fixed number of accepted hyper-samples,
// ignoring the interval entirely.
class FixedCountRule final : public mp::StoppingRule {
 public:
  explicit FixedCountRule(std::size_t target) : target_(target) {}
  std::string_view name() const override { return "fixed-count"; }
  std::optional<mp::StopReason> post_accept(const mp::EstimatorOptions&,
                                            mp::EstimationResult& r,
                                            mpe::Rng&) override {
    if (r.hyper_samples < target_) return std::nullopt;
    r.converged = true;
    r.stop_reason = mp::StopReason::kConverged;
    return mp::StopReason::kConverged;
  }

 private:
  std::size_t target_;
};

TEST(Engine, CustomStoppingRuleThroughPublicApi) {
  auto pop = weibull_population(20000, 103);
  mp::EngineConfig cfg;
  cfg.options.epsilon = 1e-12;  // the default interval rule would never stop
  cfg.stopping = {std::make_shared<mp::HyperBudgetRule>(),
                  std::make_shared<mp::RunControlRule>(),
                  std::make_shared<FixedCountRule>(7)};
  const mp::Engine engine(cfg);
  const auto r = engine.run(pop, 31);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.hyper_samples, 7u);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kConverged);

  // The same custom chain is invariant across thread counts.
  mp::ParallelOptions par1, par8;
  par1.threads = 1;
  par8.threads = 8;
  const auto p1 = engine.run(pop, 55, par1);
  const auto p8 = engine.run(pop, 55, par8);
  EXPECT_EQ(p1.hyper_samples, 7u);
  expect_bit_identical(p1, p8);
}

// Ignores the maxima and reports a constant far above the population: every
// hyper-value is identical, so the Student-t interval converges immediately
// at min_hyper_samples.
class ConstantFitter final : public mp::TailFitter {
 public:
  std::string_view name() const override { return "constant"; }
  mp::TailFitOutcome fit(std::span<const double>,
                         const mp::TailFitContext&) const override {
    mp::TailFitOutcome out;
    out.estimate = 1.0e6;  // above any drawn unit, so the max clamp is moot
    out.mu_hat = 1.0e6;
    out.mle.converged = true;
    out.mle.params.alpha = 3.0;
    return out;
  }
};

TEST(Engine, CustomTailFitterThroughPublicApi) {
  auto pop = weibull_population(20000, 104);
  mp::EngineConfig cfg;
  cfg.fitter = std::make_shared<ConstantFitter>();
  const mp::Engine engine(cfg);
  const auto r = engine.run(pop, 41);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.hyper_samples, cfg.options.min_hyper_samples);
  EXPECT_EQ(r.estimate, 1.0e6);
  for (double v : r.hyper_values) EXPECT_EQ(v, 1.0e6);
}

// Fits like the paper's fitter but always reports the fitted endpoint, as
// if the population were infinite: a real fit, through the custom-fitter
// seam, that differs from the default on finite populations.
class EndpointFitter final : public mp::TailFitter {
 public:
  std::string_view name() const override { return "endpoint"; }
  mp::TailFitOutcome fit(std::span<const double> maxima,
                         const mp::TailFitContext& context) const override {
    return mp::default_tail_fitter().fit(
        maxima, mp::TailFitContext{context.options, std::nullopt});
  }
};

TEST(Engine, CustomFitterConvergesAndIsThreadInvariant) {
  auto pop = weibull_population(40000, 106);
  mp::EngineConfig cfg;
  cfg.fitter = std::make_shared<EndpointFitter>();
  const mp::Engine engine(cfg);
  const auto r = engine.run(pop, 61);
  EXPECT_TRUE(r.converged);
  const double rel = std::fabs(r.estimate - pop.true_max()) / pop.true_max();
  EXPECT_LT(rel, 0.15);
  EXPECT_NE(r.estimate, mp::Engine().run(pop, 61).estimate);

  mp::ParallelOptions par1, par2, par8;
  par1.threads = 1;
  par2.threads = 2;
  par8.threads = 8;
  const auto p1 = engine.run(pop, 66, par1);
  const auto p2 = engine.run(pop, 66, par2);
  const auto p8 = engine.run(pop, 66, par8);
  expect_bit_identical(p1, p2);
  expect_bit_identical(p1, p8);
}

TEST(Engine, PinnedBootstrapRuleMatchesOptionsBootstrap) {
  // An explicit IntervalRule(kBootstrap) chain must reproduce the legacy
  // options.interval = kBootstrap run exactly (same interval RNG stream).
  auto pop = weibull_population(20000, 107);
  mp::EstimatorOptions legacy_opt;
  legacy_opt.interval = mp::IntervalKind::kBootstrap;
  const auto legacy = mp::estimate_max_power(pop, legacy_opt, 71);

  mp::EngineConfig cfg;  // options.interval left at kStudentT: the pin wins
  cfg.stopping = {
      std::make_shared<mp::HyperBudgetRule>(),
      std::make_shared<mp::RunControlRule>(),
      std::make_shared<mp::IntervalRule>(mp::IntervalKind::kBootstrap)};
  const mp::Engine engine(cfg);
  const auto ours = engine.run(pop, 71);
  expect_bit_identical(legacy, ours);
}

// --- UnitSource layer -----------------------------------------------------

TEST(Engine, PopulationUnitSourceReportsPopulationFacts) {
  auto pop = weibull_population(5000, 108);
  mp::PopulationUnitSource src(pop);
  EXPECT_TRUE(src.concurrent_fill_safe());
  ASSERT_TRUE(src.population_size().has_value());
  EXPECT_EQ(*src.population_size(), 5000u);
  EXPECT_EQ(src.description(), pop.description());
  mpe::Rng a(1), b(1);
  std::vector<double> via_source(64), via_pop(64);
  src.fill(std::span<double>(via_source), a);
  pop.draw_batch(std::span<double>(via_pop), b);
  EXPECT_EQ(via_source, via_pop);
}

// --- The pipelined run loop -----------------------------------------------

/// Passes draws through to a population, counting fills and running a hook
/// before each: a test's handle on what happens mid-pipeline.
class HookedSource final : public mp::UnitSource {
 public:
  HookedSource(vec::Population& inner,
               std::function<void(std::size_t fill)> hook)
      : inner_(inner), hook_(std::move(hook)) {}

  void fill(std::span<double> out, mpe::Rng& rng) override {
    hook_(fills_.fetch_add(1));
    inner_.draw_batch(out, rng);
  }
  bool concurrent_fill_safe() const override {
    return inner_.concurrent_draw_safe();
  }
  std::optional<std::size_t> population_size() const override {
    return inner_.size();
  }
  std::string description() const override { return inner_.description(); }

 private:
  vec::Population& inner_;
  std::function<void(std::size_t)> hook_;
  std::atomic<std::size_t> fills_{0};
};

/// After a stopped run, the pool must still serve the next estimate.
void expect_pool_reusable(mpe::util::ThreadPool& pool, vec::Population& pop) {
  const mp::Engine engine(mp::EngineConfig{});
  mp::ParallelOptions par;
  par.pool = &pool;
  expect_bit_identical(engine.run(pop, 5), engine.run(pop, 5, par));
}

TEST(EnginePipeline, CancelMidRunReturnsAndPoolStaysReusable) {
  auto pop = weibull_population(20000, 110);
  mp::EngineConfig cfg;
  cfg.options.epsilon = 1e-12;  // only the cancellation can end the run
  cfg.options.control.cancel = mpe::util::CancellationToken::create();
  const auto token = cfg.options.control.cancel;
  const mp::Engine engine(cfg);
  HookedSource source(pop, [&token](std::size_t fill) {
    if (fill == 20) token.request_stop();
  });
  mpe::util::ThreadPool pool(3);
  mp::ParallelOptions par;
  par.pool = &pool;
  const auto r = engine.run(source, 71, par);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kCancelled);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.hyper_samples, 1u);
  EXPECT_LE(r.hyper_samples, 21u);
  expect_pool_reusable(pool, pop);
}

TEST(EnginePipeline, DeadlineMidRunReturnsAndPoolStaysReusable) {
  auto pop = weibull_population(20000, 111);
  mp::EngineConfig cfg;
  cfg.options.epsilon = 1e-12;
  cfg.options.control.deadline =
      mpe::util::Deadline::after(std::chrono::milliseconds(30));
  const mp::Engine engine(cfg);
  HookedSource slow(pop, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  mpe::util::ThreadPool pool(3);
  mp::ParallelOptions par;
  par.pool = &pool;
  const auto r = engine.run(slow, 72, par);
  EXPECT_EQ(r.stop_reason, mp::StopReason::kDeadlineExceeded);
  EXPECT_FALSE(r.converged);
  EXPECT_LT(r.hyper_samples, cfg.options.max_hyper_samples);
  expect_pool_reusable(pool, pop);
}

TEST(EnginePipeline, RunNeverWaitsForHelpersThatHaveNotStarted) {
  // The pool's one worker is busy, so the run's helper cannot start: the
  // caller draws every index alone and returns. The helper starts after
  // the run's source and engine are gone and must leave without touching
  // them.
  auto pop = weibull_population(20000, 112);
  mpe::util::ThreadPool pool(1);
  std::promise<void> release;
  auto blocker = pool.submit([gate = release.get_future()]() mutable {
    gate.wait();
  });
  mp::EstimationResult r;
  {
    const mp::Engine engine(mp::EngineConfig{});
    mp::PopulationUnitSource source(pop);
    mp::ParallelOptions par;
    par.pool = &pool;
    r = engine.run(source, 73, par);
  }
  release.set_value();
  blocker.get();
  expect_bit_identical(mp::Engine(mp::EngineConfig{}).run(pop, 73), r);
  expect_pool_reusable(pool, pop);
}

TEST(EnginePipeline, ForeignExceptionFromADrawPropagates) {
  // Only mpe::Error is a data fault; anything else reaches the caller, from
  // whichever participant drew it, and the pool survives.
  auto pop = weibull_population(20000, 113);
  mp::EngineConfig cfg;
  cfg.options.epsilon = 1e-12;  // the run cannot converge before the throw
  const mp::Engine engine(cfg);
  HookedSource source(pop, [](std::size_t fill) {
    if (fill == 3) throw std::runtime_error("not an mpe::Error");
  });
  mpe::util::ThreadPool pool(3);
  mp::ParallelOptions par;
  par.pool = &pool;
  EXPECT_THROW((void)engine.run(source, 74, par), std::runtime_error);
  expect_pool_reusable(pool, pop);
}

// --- Strategy-aware checkpoint fingerprint --------------------------------

TEST(Engine, StrategyCompositionChangesFingerprint) {
  mp::EstimatorOptions opt;
  const auto base = mp::run_fingerprint(opt, 9, "pop");
  // Empty strategies == the 3-argument (default composition) fingerprint.
  EXPECT_EQ(mp::run_fingerprint(opt, 9, "pop", ""), base);
  const auto endpoint = mp::run_fingerprint(opt, 9, "pop", "fitter=endpoint");
  EXPECT_NE(endpoint, base);
  EXPECT_NE(mp::run_fingerprint(opt, 9, "pop", "fitter=constant"), endpoint);
}

TEST(Engine, NonDefaultFitterRefusesDefaultCheckpoint) {
  auto pop = weibull_population(20000, 109);
  const std::string path = ::testing::TempDir() + "engine_fp_refusal.ckpt";
  std::remove(path.c_str());

  mp::EstimatorOptions opt;
  opt.epsilon = 1e-12;  // never converges: checkpoint survives the run
  opt.max_hyper_samples = 4;
  opt.checkpoint_path = path;
  const mp::Engine def(mp::EngineConfig{opt, nullptr, {}});
  const auto partial = def.run(pop, 88, {});
  EXPECT_FALSE(partial.converged);

  mp::EngineConfig cfg;
  cfg.options = opt;
  cfg.fitter = std::make_shared<EndpointFitter>();
  const mp::Engine custom(cfg);
  try {
    (void)custom.run(pop, 88, {});
    FAIL() << "expected kPrecondition refusal";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
  }
  std::remove(path.c_str());
}

TEST(Engine, NameParsersAcceptKnownRejectUnknown) {
  EXPECT_EQ(mp::interval_kind_from_name("t"), mp::IntervalKind::kStudentT);
  EXPECT_EQ(mp::interval_kind_from_name("bootstrap"),
            mp::IntervalKind::kBootstrap);
  EXPECT_FALSE(mp::interval_kind_from_name("student").has_value());
}

}  // namespace
