#include "vectors/population.hpp"

#include <gtest/gtest.h>

#include <string>

#include "gen/presets.hpp"
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
  // A loaded-delay batch runs on the 64-lane event simulator and still
  // reproduces the scalar draw() stream.
  auto nl = mpe::gen::parity_tree(12, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  EXPECT_TRUE(pop.concurrent_draw_safe());
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

TEST(StreamingPopulation, EventDrivenBatchesAreConcurrentSafe) {
  // A loaded-delay population checks a 64-lane event simulator out per
  // draw_batch call, so concurrent batches are safe; it has no SIMD kernel.
  auto nl = mpe::gen::parity_tree(12, 2);
  mpe::sim::CyclePowerEvaluator eval(nl);  // default: event-driven
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  EXPECT_FALSE(pop.kernel().has_value());
  EXPECT_TRUE(pop.concurrent_draw_safe());
  mpe::Rng rng(2);
  std::vector<double> batch(10);
  pop.draw_batch(batch, rng);
  EXPECT_EQ(pop.draws(), 10u);
}

TEST(StreamingPopulation, EventDrawBatchMatchesScalarDrawsAtEverySize) {
  // Unit and loaded delay: draw_batch is bit-identical to sequential draw()
  // for a single lane, partial, full and multi-pass batches.
  const auto nl = mpe::gen::build_preset("c880", 1);
  const vec::HighActivityPairGenerator gen(nl.num_inputs(), 0.3);
  for (const auto model :
       {mpe::sim::DelayModel::kUnit, mpe::sim::DelayModel::kFanoutLoaded}) {
    mpe::sim::PowerEvalOptions opt;
    opt.delay_model = model;
    mpe::sim::CyclePowerEvaluator eval(nl, opt);
    vec::StreamingPopulation pop(gen, eval);
    for (std::size_t size : {1, 63, 64, 65, 300}) {
      SCOPED_TRACE(std::string(mpe::sim::to_string(model)) + " batch " +
                   std::to_string(size));
      mpe::Rng scalar_rng(size), batch_rng(size);
      std::vector<double> expected(size);
      for (auto& v : expected) v = pop.draw(scalar_rng);
      std::vector<double> batch(size);
      pop.draw_batch(batch, batch_rng);
      EXPECT_EQ(batch, expected);
    }
  }
}

TEST(StreamingPopulation, DescriptionsCarryTheEnergyOrderOfEventTiming) {
  // Event-timed descriptions name the energy summation order, so a
  // checkpoint of the earlier order is refused; zero delay names none.
  auto nl = mpe::gen::parity_tree(8, 2, "ptree");
  const vec::UniformPairGenerator gen(nl.num_inputs());
  EXPECT_EQ(vec::streaming_description("ptree", gen,
                                       mpe::sim::DelayModel::kZero),
            "streaming population over ptree (" + gen.description() +
                ") [zero delay]");
  EXPECT_EQ(vec::streaming_description("ptree", gen,
                                       mpe::sim::DelayModel::kFanoutLoaded),
            "streaming population over ptree (" + gen.description() +
                ") [fanout-loaded delay, energy order 2]");
  EXPECT_EQ(vec::streaming_description("ptree", gen,
                                       mpe::sim::DelayModel::kUnit),
            "streaming population over ptree (" + gen.description() +
                ") [unit delay, energy order 2]");
}

}  // namespace
