#include "vectors/population.hpp"

#include <gtest/gtest.h>

#include "gen/trees.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace vec = mpe::vec;

TEST(FinitePopulation, TrueMaxAndDraws) {
  vec::FinitePopulation pop({1.0, 5.0, 3.0, 2.0}, "test");
  EXPECT_DOUBLE_EQ(pop.true_max(), 5.0);
  ASSERT_TRUE(pop.size().has_value());
  EXPECT_EQ(*pop.size(), 4u);
  mpe::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const double v = pop.draw(rng);
    EXPECT_TRUE(v == 1.0 || v == 5.0 || v == 3.0 || v == 2.0);
  }
}

TEST(FinitePopulation, DrawsCoverAllUnits) {
  vec::FinitePopulation pop({1.0, 2.0, 3.0}, "test");
  mpe::Rng rng(2);
  std::set<double> seen;
  for (int i = 0; i < 200; ++i) seen.insert(pop.draw(rng));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(FinitePopulation, QualifiedFraction) {
  // Max 10; 5% threshold = 9.5. Two of five values qualify.
  vec::FinitePopulation pop({10.0, 9.6, 9.0, 5.0, 1.0}, "test");
  EXPECT_DOUBLE_EQ(pop.qualified_fraction(0.05), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(pop.qualified_fraction(0.5), 4.0 / 5.0);
}

TEST(FinitePopulation, DescriptionRoundTrip) {
  vec::FinitePopulation pop({1.0}, "my population");
  EXPECT_EQ(pop.description(), "my population");
}

TEST(FinitePopulation, ContractChecks) {
  EXPECT_THROW(vec::FinitePopulation({}, "empty"), mpe::ContractViolation);
  vec::FinitePopulation pop({1.0, 2.0}, "x");
  EXPECT_THROW(pop.qualified_fraction(0.0), mpe::ContractViolation);
}

TEST(StreamingPopulation, SimulatesFreshUnits) {
  auto nl = mpe::gen::parity_tree(12, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  EXPECT_FALSE(pop.size().has_value());
  mpe::Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 50; ++i) sum += pop.draw(rng);
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(pop.draws(), 50u);
  EXPECT_NE(pop.description().find("parity"), std::string::npos);
}

TEST(StreamingPopulation, WidthMismatchRejected) {
  auto nl = mpe::gen::parity_tree(12, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator wrong(8);
  EXPECT_THROW(vec::StreamingPopulation(wrong, eval),
               mpe::ContractViolation);
}

TEST(FinitePopulation, DrawBatchMatchesScalarDraws) {
  vec::FinitePopulation pop({1.0, 2.0, 3.0, 4.0, 5.0}, "test");
  mpe::Rng scalar_rng(7), batch_rng(7);
  std::vector<double> expected(257);
  for (auto& v : expected) v = pop.draw(scalar_rng);
  std::vector<double> batch(expected.size());
  pop.draw_batch(batch, batch_rng);
  EXPECT_EQ(batch, expected);
}

TEST(FinitePopulation, ConcurrentDrawSafe) {
  vec::FinitePopulation pop({1.0, 2.0}, "test");
  EXPECT_TRUE(pop.concurrent_draw_safe());
}

TEST(StreamingPopulation, ScalarBatchMatchesScalarDraws) {
  auto nl = mpe::gen::parity_tree(12, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  EXPECT_FALSE(pop.concurrent_draw_safe());
  mpe::Rng scalar_rng(5), batch_rng(5);
  std::vector<double> expected(40);
  for (auto& v : expected) v = pop.draw(scalar_rng);
  std::vector<double> batch(expected.size());
  pop.draw_batch(batch, batch_rng);
  EXPECT_EQ(batch, expected);
  EXPECT_EQ(pop.draws(), 80u);
}

TEST(StreamingPopulation, BitParallelBatchMatches64ScalarDraws) {
  // A zero-delay population evaluates draw_batch bit-parallel on the
  // compiled tape: same stream, same values, bit for bit, as 64 scalar
  // draw() calls — one tape pass instead of 64 netlist traversals.
  auto nl = mpe::gen::parity_tree(24, 2);
  mpe::sim::PowerEvalOptions opt;
  opt.delay_model = mpe::sim::DelayModel::kZero;
  mpe::sim::CyclePowerEvaluator eval(nl, opt);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  EXPECT_EQ(pop.kernel(), mpe::sim::best_kernel());
  EXPECT_TRUE(pop.concurrent_draw_safe());

  mpe::Rng scalar_rng(9), batch_rng(9);
  std::vector<double> expected(64);
  for (auto& v : expected) v = pop.draw(scalar_rng);
  std::vector<double> batch(64);
  pop.draw_batch(batch, batch_rng);
  EXPECT_EQ(batch, expected);
  EXPECT_EQ(pop.draws(), 128u);
}

TEST(StreamingPopulation, BitParallelHandlesPartialAndMultiWaveBatches) {
  auto nl = mpe::gen::parity_tree(16, 2);
  mpe::sim::PowerEvalOptions opt;
  opt.delay_model = mpe::sim::DelayModel::kZero;
  mpe::sim::CyclePowerEvaluator eval(nl, opt);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  const std::size_t lanes = mpe::sim::kernel_lanes(*pop.kernel());

  for (std::size_t size : {std::size_t{1}, lanes - 1, lanes + 1,
                           3 * lanes + 7}) {
    mpe::Rng scalar_rng(size), batch_rng(size);
    std::vector<double> expected(size);
    for (auto& v : expected) v = pop.draw(scalar_rng);
    std::vector<double> batch(size);
    pop.draw_batch(batch, batch_rng);
    EXPECT_EQ(batch, expected) << "batch size " << size;
  }
}

TEST(StreamingPopulation, BitParallelRejectedForEventDrivenEvaluator) {
  // Event timing does not vectorize: a loaded-delay population draws
  // scalar through its one shared evaluator, so it is not concurrent-safe.
  auto nl = mpe::gen::parity_tree(12, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);  // default: event-driven
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  EXPECT_FALSE(pop.kernel().has_value());
  EXPECT_FALSE(pop.concurrent_draw_safe());
  mpe::Rng rng(2);
  std::vector<double> batch(10);
  pop.draw_batch(batch, rng);
  EXPECT_EQ(pop.draws(), 10u);
}

}  // namespace
