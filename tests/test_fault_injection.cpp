// Robustness proof for the estimators: under injected NaN/Inf/stuck-at,
// throwing, and slow draws, both entry points return a flagged finite
// result (or a typed partial) at 1, 2, and 8 threads — never a crash, a
// deadlock, or a silent NaN.
#include "vectors/fault_injection.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "maxpower/engine.hpp"
#include "maxpower/estimator.hpp"
#include "maxpower/unit_source.hpp"
#include "stats/weibull.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;
using mpe::vec::FaultInjectingPopulation;
using mpe::vec::FaultKind;
using mpe::vec::FaultSpec;

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

FaultSpec spec(FaultKind kind, std::uint64_t period, std::uint64_t phase = 0,
               std::uint64_t start = 0) {
  FaultSpec s;
  s.kind = kind;
  s.period = period;
  s.phase = phase;
  s.start_index = start;
  return s;
}

// The result is sane: finite everywhere a value was produced, and never a
// poisoned mean.
void expect_sane(const mp::EstimationResult& r) {
  for (double v : r.hyper_values) {
    EXPECT_TRUE(std::isfinite(v)) << "poisoned hyper value " << v;
  }
  if (!r.hyper_values.empty()) {
    EXPECT_TRUE(std::isfinite(r.estimate)) << "poisoned estimate";
  }
}

TEST(FaultInjection, FaultFreeDecoratorIsBitIdenticalPassthrough) {
  auto inner1 = weibull_population(20000, 101);
  auto inner2 = weibull_population(20000, 101);
  FaultInjectingPopulation decorated(inner2, {});
  mp::EstimatorOptions opt;
  const auto base = mp::estimate_max_power(inner1, opt, std::uint64_t{77});
  const auto r = mp::estimate_max_power(decorated, opt, std::uint64_t{77});
  EXPECT_EQ(base.estimate, r.estimate);
  EXPECT_EQ(base.units_used, r.units_used);
  EXPECT_EQ(base.hyper_samples, r.hyper_samples);
  EXPECT_EQ(decorated.injected(), 0u);
}

TEST(FaultInjection, ScheduleIsDeterministicForSingleConsumer) {
  auto inner = weibull_population(5000, 7);
  FaultInjectingPopulation pop(inner, {spec(FaultKind::kNan, 10, 3)});
  mpe::Rng rng(1);
  std::vector<double> out(100);
  pop.draw_batch(out, rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool should_fault = (i >= 3) && ((i - 3) % 10 == 0);
    EXPECT_EQ(std::isnan(out[i]), should_fault) << "draw " << i;
  }
  EXPECT_EQ(pop.draws(), 100u);
  EXPECT_EQ(pop.injected(), 10u);
}

TEST(FaultInjection, StartIndexDelaysFaults) {
  auto inner = weibull_population(5000, 7);
  FaultInjectingPopulation pop(inner, {spec(FaultKind::kNan, 1, 0, 50)});
  mpe::Rng rng(1);
  std::vector<double> out(80);
  pop.draw_batch(out, rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(std::isnan(out[i]), i >= 50) << "draw " << i;
  }
}

TEST(FaultInjection, StuckAtReplacesValue) {
  auto inner = weibull_population(5000, 7);
  auto s = spec(FaultKind::kStuckAt, 4);
  s.stuck_value = -1.25;
  FaultInjectingPopulation pop(inner, {s});
  mpe::Rng rng(1);
  std::vector<double> out(12);
  pop.draw_batch(out, rng);
  for (std::size_t i = 0; i < out.size(); i += 4) {
    EXPECT_EQ(out[i], -1.25) << "draw " << i;
  }
}

TEST(FaultInjection, ThrowFaultCarriesTypedCode) {
  auto inner = weibull_population(5000, 7);
  FaultInjectingPopulation pop(inner, {spec(FaultKind::kThrow, 1)});
  mpe::Rng rng(1);
  try {
    pop.draw(rng);
    FAIL() << "expected mpe::Error";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kFaultInjected);
  }
}

/// Throws from the draw of one hyper-sample index: the fill whose Rng
/// starts where the engine's stream for that index, stream_seed(seed,
/// index), starts. Unlike FaultInjectingPopulation's global draw counter,
/// the faulting index does not depend on the schedule.
class ThrowAtIndexSource final : public mp::UnitSource {
 public:
  ThrowAtIndexSource(mpe::vec::Population& inner, std::uint64_t seed,
                     std::uint64_t index)
      : inner_(inner),
        target_(mpe::Rng(mpe::stream_seed(seed, index)).state().s) {}

  void fill(std::span<double> out, mpe::Rng& rng) override {
    if (rng.state().s == target_) {
      throw mpe::Error(mpe::ErrorCode::kFaultInjected,
                       "injected fault at one hyper-sample index");
    }
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
  mpe::vec::Population& inner_;
  std::array<std::uint64_t, 4> target_;
};

TEST(FaultInjection, DrawFaultIsRecordedOnlyWhenTheFoldReachesIt) {
  auto pop = weibull_population(20000, 131);
  const mp::Engine engine(mp::EngineConfig{});
  const std::uint64_t seed = 23;
  const auto clean = engine.run(pop, seed);
  ASSERT_TRUE(clean.converged);
  // No discards: the run stops at index hyper_samples - 1.
  ASSERT_EQ(clean.diagnostics.discarded_hyper_samples, 0u);
  const std::uint64_t stop_index = clean.hyper_samples - 1;

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    mp::ParallelOptions par;
    par.threads = threads;
    // A fault past the stop index may be drawn by a speculating
    // participant, but it is never folded: no stop, no note.
    ThrowAtIndexSource past(pop, seed, stop_index + 1);
    const auto r = engine.run(past, seed, par);
    EXPECT_EQ(r.stop_reason, mp::StopReason::kConverged);
    EXPECT_EQ(r.estimate, clean.estimate);
    EXPECT_EQ(r.hyper_samples, clean.hyper_samples);
    EXPECT_EQ(r.units_used, clean.units_used);
    EXPECT_EQ(r.diagnostics.to_json(), clean.diagnostics.to_json());

    // A fault at the stop index ends the run there, the same way at every
    // thread count.
    ThrowAtIndexSource at(pop, seed, stop_index);
    const auto f = engine.run(at, seed, par);
    EXPECT_EQ(f.stop_reason, mp::StopReason::kDataFault);
    EXPECT_FALSE(f.converged);
    EXPECT_EQ(f.hyper_samples, stop_index);
    ASSERT_EQ(f.diagnostics.records.size(), 1u);
    EXPECT_EQ(f.diagnostics.records[0].code, mpe::ErrorCode::kFaultInjected);
  }
}

// --- Estimator under fire, threads 1/2/8 -----------------------------------

class FaultInjectionThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(FaultInjectionThreads, SurvivesNanFaults) {
  auto inner = weibull_population(20000, 101);
  FaultInjectingPopulation pop(inner, {spec(FaultKind::kNan, 97)});
  mp::EstimatorOptions opt;
  mp::ParallelOptions par;
  par.threads = GetParam();
  const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{14}, par);
  expect_sane(r);
  EXPECT_GT(r.diagnostics.nonfinite_units, 0u);
  EXPECT_GT(r.hyper_samples, 0u);
}

TEST_P(FaultInjectionThreads, SurvivesInfFaults) {
  auto inner = weibull_population(20000, 103);
  FaultInjectingPopulation pop(inner, {spec(FaultKind::kPosInf, 61, 5)});
  mp::EstimatorOptions opt;
  mp::ParallelOptions par;
  par.threads = GetParam();
  const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{15}, par);
  expect_sane(r);
  EXPECT_GT(r.diagnostics.nonfinite_units, 0u);
}

TEST_P(FaultInjectionThreads, SurvivesStuckAtFaults) {
  auto inner = weibull_population(20000, 107);
  auto s = spec(FaultKind::kStuckAt, 37);
  s.stuck_value = 0.0;
  FaultInjectingPopulation pop(inner, {s});
  mp::EstimatorOptions opt;
  mp::ParallelOptions par;
  par.threads = GetParam();
  const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{16}, par);
  expect_sane(r);
  EXPECT_GT(r.hyper_samples, 0u);
}

TEST_P(FaultInjectionThreads, SurvivesThrowingDraws) {
  auto inner = weibull_population(20000, 109);
  FaultInjectingPopulation pop(inner, {spec(FaultKind::kThrow, 1, 0, 700)});
  mp::EstimatorOptions opt;
  opt.epsilon = 1e-9;  // unattainable: forces the run into the fault
  mp::ParallelOptions par;
  par.threads = GetParam();
  mp::EstimationResult r;
  EXPECT_NO_THROW(
      r = mp::estimate_max_power(pop, opt, std::uint64_t{17}, par));
  EXPECT_EQ(r.stop_reason, mp::StopReason::kDataFault);
  EXPECT_FALSE(r.converged);
  // On one thread the draws are in index order: the first two
  // hyper-samples (2 * 300 units) complete and the third throws. More
  // threads race for the global fault counter, so only the stop is fixed.
  if (GetParam() == 1) {
    EXPECT_EQ(r.hyper_samples, 2u);
  }
  expect_sane(r);
  EXPECT_FALSE(r.diagnostics.records.empty());
}

TEST_P(FaultInjectionThreads, SurvivesSlowDraws) {
  auto inner = weibull_population(20000, 113);
  auto s = spec(FaultKind::kSlowDraw, 101);
  s.slow_micros = 200;
  FaultInjectingPopulation pop(inner, {s});
  mp::EstimatorOptions opt;
  mp::ParallelOptions par;
  par.threads = GetParam();
  const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{18}, par);
  expect_sane(r);
  EXPECT_GT(r.hyper_samples, 0u);
}

TEST_P(FaultInjectionThreads, SurvivesCombinedFaultStorm) {
  auto inner = weibull_population(20000, 127);
  auto stuck = spec(FaultKind::kStuckAt, 53, 11);
  stuck.stuck_value = 0.0;
  FaultInjectingPopulation pop(
      inner,
      {spec(FaultKind::kNan, 89), spec(FaultKind::kPosInf, 71, 3), stuck});
  mp::EstimatorOptions opt;
  mp::ParallelOptions par;
  par.threads = GetParam();
  const auto r = mp::estimate_max_power(pop, opt, std::uint64_t{19}, par);
  expect_sane(r);
  EXPECT_GT(r.diagnostics.nonfinite_units, 0u);
  EXPECT_GT(pop.injected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, FaultInjectionThreads,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
