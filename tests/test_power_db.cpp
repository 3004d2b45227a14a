#include "vectors/power_db.hpp"

#include <gtest/gtest.h>

#include "gen/arithmetic.hpp"
#include "gen/trees.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace vec = mpe::vec;

TEST(PowerDb, BuildsRequestedSize) {
  auto nl = mpe::gen::parity_tree(16, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::PowerDbOptions opt;
  opt.population_size = 500;
  mpe::Rng rng(1);
  const auto pop = vec::build_power_database(gen, eval, opt, rng);
  ASSERT_TRUE(pop.size().has_value());
  EXPECT_EQ(*pop.size(), 500u);
  EXPECT_GT(pop.true_max(), 0.0);
  EXPECT_EQ(pop.values().size(), 500u);
}

TEST(PowerDb, ProgressCallbackFires) {
  auto nl = mpe::gen::parity_tree(8, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::PowerDbOptions opt;
  opt.population_size = 100;
  opt.progress_stride = 25;
  std::vector<std::size_t> ticks;
  opt.on_progress = [&](std::size_t done, std::size_t total) {
    ticks.push_back(done);
    EXPECT_EQ(total, 100u);
  };
  mpe::Rng rng(2);
  vec::build_power_database(gen, eval, opt, rng);
  EXPECT_EQ(ticks, (std::vector<std::size_t>{25, 50, 75, 100}));
}

TEST(PowerDb, BatchedValuesAreTheScalarStream) {
  // Every delay model: the batched build gives the values and RNG stream of
  // generate() + power_mw() unit by unit, and ticks where that loop did.
  const auto nl = mpe::gen::ripple_carry_adder(6);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  for (const auto model :
       {mpe::sim::DelayModel::kZero, mpe::sim::DelayModel::kUnit,
        mpe::sim::DelayModel::kFanoutLoaded}) {
    SCOPED_TRACE(mpe::sim::to_string(model));
    mpe::sim::PowerEvalOptions eval_opt;
    eval_opt.delay_model = model;
    mpe::sim::CyclePowerEvaluator eval(nl, eval_opt);
    vec::PowerDbOptions opt;
    opt.population_size = 150;
    opt.progress_stride = 70;
    std::vector<std::size_t> ticks;
    opt.on_progress = [&](std::size_t done, std::size_t) {
      ticks.push_back(done);
    };
    mpe::Rng rng(3), scalar_rng(3);
    const auto pop = vec::build_power_database(gen, eval, opt, rng);
    for (std::size_t i = 0; i < 150; ++i) {
      const auto p = gen.generate(scalar_rng);
      ASSERT_EQ(pop.values()[i], eval.power_mw(p.first, p.second)) << i;
    }
    EXPECT_EQ(rng(), scalar_rng());
    EXPECT_EQ(ticks, (std::vector<std::size_t>{70, 140}));
  }
}

TEST(PowerDb, DeterministicForSeed) {
  auto nl = mpe::gen::ripple_carry_adder(6);
  mpe::sim::CyclePowerEvaluator e1(nl), e2(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::PowerDbOptions opt;
  opt.population_size = 200;
  mpe::Rng r1(7), r2(7);
  const auto p1 = vec::build_power_database(gen, e1, opt, r1);
  const auto p2 = vec::build_power_database(gen, e2, opt, r2);
  ASSERT_EQ(p1.values().size(), p2.values().size());
  for (std::size_t i = 0; i < p1.values().size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.values()[i], p2.values()[i]);
  }
}

TEST(PowerDb, HighActivityPopulationHasHigherMeanPower) {
  auto nl = mpe::gen::ripple_carry_adder(8);
  mpe::sim::CyclePowerEvaluator e1(nl), e2(nl);
  const vec::TransitionProbPairGenerator low(nl.num_inputs(), 0.1);
  const vec::TransitionProbPairGenerator high(nl.num_inputs(), 0.7);
  vec::PowerDbOptions opt;
  opt.population_size = 400;
  mpe::Rng r1(9), r2(9);
  const auto pl = vec::build_power_database(low, e1, opt, r1);
  const auto ph = vec::build_power_database(high, e2, opt, r2);
  double ml = 0.0, mh = 0.0;
  for (double v : pl.values()) ml += v;
  for (double v : ph.values()) mh += v;
  EXPECT_GT(mh, ml * 1.5);
}

TEST(PowerDb, DescriptionMentionsCircuitAndSize) {
  auto nl = mpe::gen::parity_tree(8, 2, "ptree");
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::PowerDbOptions opt;
  opt.population_size = 50;
  mpe::Rng rng(3);
  const auto pop = vec::build_power_database(gen, eval, opt, rng);
  EXPECT_NE(pop.description().find("ptree"), std::string::npos);
  EXPECT_NE(pop.description().find("50"), std::string::npos);
}

TEST(PowerDb, ContractChecks) {
  auto nl = mpe::gen::parity_tree(8, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::PowerDbOptions opt;
  opt.population_size = 0;
  mpe::Rng rng(4);
  EXPECT_THROW(vec::build_power_database(gen, eval, opt, rng),
               mpe::ContractViolation);
}

}  // namespace
