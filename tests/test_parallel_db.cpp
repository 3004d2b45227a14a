#include "vectors/parallel_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/arithmetic.hpp"
#include "gen/trees.hpp"
#include "stats/descriptive.hpp"
#include "util/contracts.hpp"
#include "vectors/power_db.hpp"

namespace {

namespace vec = mpe::vec;

TEST(ParallelDb, BuildsRequestedSize) {
  auto nl = mpe::gen::parity_tree(16, 2);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::ParallelPowerDbOptions opt;
  opt.population_size = 3000;
  opt.threads = 4;
  const auto pop =
      vec::build_power_database_parallel(nl, gen, {}, opt);
  ASSERT_TRUE(pop.size().has_value());
  EXPECT_EQ(*pop.size(), 3000u);
  EXPECT_GT(pop.true_max(), 0.0);
}

TEST(ParallelDb, DeterministicAcrossThreadCounts) {
  // Loaded and zero delay, 1, 2, 4 and 13 threads: one population, and
  // every value is the scalar evaluator's on its chunk's stream.
  auto nl = mpe::gen::ripple_carry_adder(8);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::ParallelPowerDbOptions opt;
  opt.population_size = 5000;
  opt.seed = 42;
  for (const auto model : {mpe::sim::DelayModel::kFanoutLoaded,
                           mpe::sim::DelayModel::kZero}) {
    SCOPED_TRACE(mpe::sim::to_string(model));
    mpe::sim::PowerEvalOptions eval_opt;
    eval_opt.delay_model = model;
    opt.threads = 1;
    const auto p1 = vec::build_power_database_parallel(nl, gen, eval_opt, opt);
    for (unsigned threads : {2u, 4u, 13u}) {
      opt.threads = threads;
      const auto pn =
          vec::build_power_database_parallel(nl, gen, eval_opt, opt);
      ASSERT_EQ(p1.values().size(), pn.values().size());
      for (std::size_t i = 0; i < p1.values().size(); ++i) {
        EXPECT_EQ(p1.values()[i], pn.values()[i]) << threads << "/" << i;
      }
    }
    mpe::sim::CyclePowerEvaluator scalar(nl, eval_opt);
    for (std::size_t c = 0; c * opt.chunk < opt.population_size; ++c) {
      mpe::Rng rng(mpe::stream_seed(opt.seed, c));
      const std::size_t end =
          std::min(opt.population_size, (c + 1) * opt.chunk);
      for (std::size_t i = c * opt.chunk; i < end; ++i) {
        const auto p = gen.generate(rng);
        ASSERT_EQ(p1.values()[i], scalar.power_mw(p.first, p.second)) << i;
      }
    }
  }
}

TEST(ParallelDb, DifferentSeedsDiffer) {
  auto nl = mpe::gen::parity_tree(12, 2);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::ParallelPowerDbOptions opt;
  opt.population_size = 500;
  opt.seed = 1;
  const auto a = vec::build_power_database_parallel(nl, gen, {}, opt);
  opt.seed = 2;
  const auto b = vec::build_power_database_parallel(nl, gen, {}, opt);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    if (a.values()[i] != b.values()[i]) ++diffs;
  }
  EXPECT_GT(diffs, 100u);
}

TEST(ParallelDb, MatchesStatisticsOfSerialBuild) {
  // Parallel and serial builders draw different streams but must agree in
  // distribution: compare means within Monte-Carlo tolerance.
  auto nl = mpe::gen::ripple_carry_adder(8);
  const vec::UniformPairGenerator gen(nl.num_inputs());

  vec::ParallelPowerDbOptions popt;
  popt.population_size = 20000;
  popt.threads = 4;
  const auto parallel =
      vec::build_power_database_parallel(nl, gen, {}, popt);

  mpe::sim::CyclePowerEvaluator eval(nl);
  vec::PowerDbOptions sopt;
  sopt.population_size = 20000;
  mpe::Rng rng(9);
  const auto serial = vec::build_power_database(gen, eval, sopt, rng);

  const double pm = mpe::stats::mean(parallel.values());
  const double sm = mpe::stats::mean(serial.values());
  EXPECT_NEAR(pm, sm, 0.03 * sm);
}

TEST(ParallelDb, SmallPopulationFewerChunksThanThreads) {
  auto nl = mpe::gen::parity_tree(8, 2);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::ParallelPowerDbOptions opt;
  opt.population_size = 10;  // single chunk
  opt.threads = 8;
  const auto pop = vec::build_power_database_parallel(nl, gen, {}, opt);
  EXPECT_EQ(*pop.size(), 10u);
}

TEST(ParallelDb, ContractChecks) {
  auto nl = mpe::gen::parity_tree(8, 2);
  const vec::UniformPairGenerator wrong(4);
  vec::ParallelPowerDbOptions opt;
  EXPECT_THROW(vec::build_power_database_parallel(nl, wrong, {}, opt),
               mpe::ContractViolation);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  opt.population_size = 0;
  EXPECT_THROW(vec::build_power_database_parallel(nl, gen, {}, opt),
               mpe::ContractViolation);
}

}  // namespace
