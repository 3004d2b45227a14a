// Integration tests for the constrained (category I.2) input models:
// Markov-chain and correlated-group populations driving the full pipeline,
// and the physical effects those statistics must have on maximum power.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/presets.hpp"
#include "maxpower/estimator.hpp"
#include "stats/descriptive.hpp"
#include "sim/power_eval.hpp"
#include "util/rng.hpp"
#include "vectors/markov.hpp"
#include "vectors/power_db.hpp"

namespace {

namespace vec = mpe::vec;
namespace mp = mpe::maxpower;

TEST(ConstrainedIntegration, MarkovPopulationEstimates) {
  const auto nl = mpe::gen::build_preset("c432", 5);
  mpe::sim::CyclePowerEvaluator eval(nl);
  // Asymmetric chain: stationary p1 = 0.25, transition prob 0.3.
  const vec::MarkovPairGenerator gen(nl.num_inputs(), 0.2, 0.6);
  vec::PowerDbOptions db;
  db.population_size = 6000;
  mpe::Rng rng(1);
  auto pop = vec::build_power_database(gen, eval, db, rng);
  ASSERT_GT(pop.true_max(), 0.0);

  mp::EstimatorOptions opt;
  opt.epsilon = 0.08;
  const auto r = mp::estimate_max_power(pop, opt, 2);
  const double rel = std::fabs(r.estimate - pop.true_max()) / pop.true_max();
  EXPECT_LT(rel, 0.25);
  EXPECT_GT(r.units_used, 0u);
}

TEST(ConstrainedIntegration, HigherMarkovActivityRaisesMaxPower) {
  const auto nl = mpe::gen::build_preset("c432", 6);
  mpe::sim::CyclePowerEvaluator e1(nl), e2(nl);
  const vec::MarkovPairGenerator low(nl.num_inputs(), 0.1, 0.1);   // tp 0.1
  const vec::MarkovPairGenerator high(nl.num_inputs(), 0.6, 0.6);  // tp 0.6
  vec::PowerDbOptions db;
  db.population_size = 4000;
  mpe::Rng r1(3), r2(3);
  const auto pl = vec::build_power_database(low, e1, db, r1);
  const auto ph = vec::build_power_database(high, e2, db, r2);
  EXPECT_GT(ph.true_max(), pl.true_max());
  EXPECT_GT(mpe::stats::mean(ph.values()), 2.0 * mpe::stats::mean(pl.values()));
}

TEST(ConstrainedIntegration, CorrelatedTransitionsWidenPowerSpread) {
  // Same per-line transition probability, but correlated flips concentrate
  // switching into shared cycles: the power distribution gets a wider
  // spread (burst cycles + quiet cycles) than independent flipping.
  const auto nl = mpe::gen::build_preset("c432", 7);
  mpe::sim::CyclePowerEvaluator e1(nl), e2(nl);

  const std::size_t w = nl.num_inputs();
  std::vector<std::size_t> one_group(w, 0);
  const vec::CorrelatedPairGenerator correlated(one_group, {0.5}, 0.6);
  // Independent baseline with the same marginal rate 0.3.
  const vec::TransitionProbPairGenerator independent(w, 0.3);

  vec::PowerDbOptions db;
  db.population_size = 5000;
  mpe::Rng r1(4), r2(4);
  const auto pc = vec::build_power_database(correlated, e1, db, r1);
  const auto pi = vec::build_power_database(independent, e2, db, r2);

  const double sd_corr = mpe::stats::stddev(pc.values());
  const double sd_ind = mpe::stats::stddev(pi.values());
  EXPECT_GT(sd_corr, 1.3 * sd_ind);
  // Mean power stays comparable (same marginal activity).
  EXPECT_NEAR(mpe::stats::mean(pc.values()), mpe::stats::mean(pi.values()),
              0.25 * mpe::stats::mean(pi.values()));
}

TEST(ConstrainedIntegration, CorrelatedBurstsRaiseMaxPower) {
  // Peak cycles under correlated flips beat independent flips at the same
  // marginal rate — the reason joint-transition specs matter for maximum
  // power (the paper's category I.2 motivation).
  const auto nl = mpe::gen::build_preset("c880", 8);
  mpe::sim::CyclePowerEvaluator e1(nl), e2(nl);
  const std::size_t w = nl.num_inputs();
  std::vector<std::size_t> one_group(w, 0);
  const vec::CorrelatedPairGenerator correlated(one_group, {0.4}, 0.75);
  const vec::TransitionProbPairGenerator independent(w, 0.3);
  vec::PowerDbOptions db;
  db.population_size = 5000;
  mpe::Rng r1(5), r2(5);
  const auto pc = vec::build_power_database(correlated, e1, db, r1);
  const auto pi = vec::build_power_database(independent, e2, db, r2);
  EXPECT_GT(pc.true_max(), pi.true_max());
}

}  // namespace
