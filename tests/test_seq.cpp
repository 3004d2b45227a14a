#include <gtest/gtest.h>

#include <set>

#include "maxpower/estimator.hpp"
#include "seq/seq_gen.hpp"
#include "seq/seq_netlist.hpp"
#include "seq/seq_sim.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace seq = mpe::seq;

std::uint64_t state_value(const seq::SequentialSimulator& sim) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sim.state().size(); ++i) {
    v |= static_cast<std::uint64_t>(sim.state()[i]) << i;
  }
  return v;
}

TEST(SeqNetlist, CounterStructure) {
  const auto counter = seq::make_counter(4);
  EXPECT_EQ(counter.num_state_bits(), 4u);
  EXPECT_EQ(counter.num_free_inputs(), 1u);  // "en"
  EXPECT_TRUE(counter.finalized());
}

TEST(SeqNetlist, RejectsBadFlipFlops) {
  mpe::circuit::Netlist core("bad");
  core.add_input("q0");
  core.add_input("x");
  core.add_gate(mpe::circuit::GateType::kNot, "d0", {"q0"});
  core.finalize();
  seq::SequentialNetlist s(std::move(core));
  EXPECT_THROW(s.add_flip_flop("nope", "d0"), std::runtime_error);
  EXPECT_THROW(s.add_flip_flop("d0", "q0"), std::runtime_error);  // q not input
  s.add_flip_flop("q0", "d0");
  s.add_flip_flop("q0", "d0");  // duplicate Q: caught at finalize
  EXPECT_THROW(s.finalize(), std::runtime_error);
}

TEST(SeqSim, CounterCountsWhenEnabled) {
  // Inputs applied at step t are sampled into state at step t+1 (real
  // flip-flop timing), so the count lags the enable by one cycle.
  const auto counter = seq::make_counter(4);
  seq::SequentialSimulator sim(counter);
  sim.reset();
  const std::vector<std::uint8_t> en = {1};
  sim.step(en);  // latches en = 1; state still 0
  EXPECT_EQ(state_value(sim), 0u);
  for (std::uint64_t expect = 1; expect <= 20; ++expect) {
    sim.step(en);
    EXPECT_EQ(state_value(sim), expect & 0xf) << expect;
  }
}

TEST(SeqSim, CounterHoldsWhenDisabled) {
  const auto counter = seq::make_counter(4);
  seq::SequentialSimulator sim(counter);
  sim.reset();
  const std::vector<std::uint8_t> en = {1}, hold = {0};
  sim.step(en);   // latch enable
  sim.step(en);   // count to 1
  sim.step(hold); // count to 2 (enable was high last cycle), latch hold
  EXPECT_EQ(state_value(sim), 2u);
  sim.step(hold);
  sim.step(hold);
  EXPECT_EQ(state_value(sim), 2u);
}

TEST(SeqSim, MaxLengthLfsrPeriod) {
  // x^4 + x^3 + 1 is maximal: period 15 over nonzero states.
  auto lfsr = seq::make_lfsr(4, {4, 3});
  seq::SequentialSimulator sim(lfsr);
  std::vector<std::uint8_t> seed = {1, 0, 0, 0};
  sim.set_state(seed);
  std::set<std::uint64_t> seen;
  std::uint64_t cur = state_value(sim);
  for (int i = 0; i < 15; ++i) {
    EXPECT_TRUE(seen.insert(cur).second) << "state repeated early at " << i;
    EXPECT_NE(cur, 0u);
    sim.step({});
    cur = state_value(sim);
  }
  EXPECT_EQ(cur, state_value(sim));  // stable accessor
  EXPECT_EQ(seen.size(), 15u);
  // After 15 steps the initial state recurs.
  EXPECT_TRUE(seen.count(cur));
  std::vector<std::uint8_t> again = {1, 0, 0, 0};
  seq::SequentialSimulator sim2(lfsr);
  sim2.set_state(again);
  for (int i = 0; i < 15; ++i) sim2.step({});
  EXPECT_EQ(state_value(sim2), 1u);
}

TEST(SeqSim, ShiftRegisterShifts) {
  auto shreg = seq::make_shift_register(5);
  seq::SequentialSimulator sim(shreg);
  sim.reset();
  // Shift in the pattern 1,0,1,1 followed by a flush cycle (the bit given
  // at step t reaches q0 at step t+1).
  for (std::uint8_t bit : {1, 0, 1, 1, 0}) {
    sim.step(std::vector<std::uint8_t>{bit});
  }
  // q0 holds the newest latched bit (the fourth), q3 the first.
  EXPECT_EQ(sim.state()[0], 1);
  EXPECT_EQ(sim.state()[1], 1);
  EXPECT_EQ(sim.state()[2], 0);
  EXPECT_EQ(sim.state()[3], 1);
  EXPECT_EQ(sim.state()[4], 0);
}

TEST(SeqSim, AccumulatorAddsModulo) {
  auto acc = seq::make_accumulator(6);
  seq::SequentialSimulator sim(acc);
  sim.reset();
  // state after step t equals the sum of inputs given before step t
  // (one-cycle latency of the FF sampling).
  std::uint64_t running = 0;
  mpe::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t x = rng.below(64);
    std::vector<std::uint8_t> in(6);
    for (int b = 0; b < 6; ++b) {
      in[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>((x >> b) & 1);
    }
    sim.step(in);
    EXPECT_EQ(state_value(sim), running) << i;
    running = (running + x) & 63;
  }
}

TEST(SeqSim, PowerIncludesClockEnergy) {
  // Even a completely idle cycle (disabled counter, no toggles) burns the
  // per-FF clock energy.
  const auto counter = seq::make_counter(8);
  seq::SeqSimOptions opt;
  seq::SequentialSimulator sim(counter, opt);
  sim.reset();
  const std::vector<std::uint8_t> hold = {0};
  sim.step(hold);  // settle the enable line
  const auto r = sim.step(hold);
  EXPECT_GE(r.energy_pj, opt.ff_clock_energy_pj * 8 - 1e-12);
}

TEST(SeqSim, TogglingStateBurnsMore) {
  const auto counter = seq::make_counter(8);
  seq::SequentialSimulator sim(counter);
  sim.reset();
  const std::vector<std::uint8_t> en = {1}, hold = {0};
  sim.step(en);
  double counting = 0.0, holding = 0.0;
  for (int i = 0; i < 32; ++i) counting += sim.step(en).energy_pj;
  for (int i = 0; i < 32; ++i) holding += sim.step(hold).energy_pj;
  EXPECT_GT(counting, 2.0 * holding);
}

TEST(SeqPopulation, EstimatorConvergesOnAccumulator) {
  auto acc = seq::make_accumulator(8);
  seq::SequentialSimulator sim(acc);
  seq::SequencePopulation pop(sim);
  mpe::maxpower::EstimatorOptions opt;
  opt.epsilon = 0.08;
  const auto r = mpe::maxpower::estimate_max_power(pop, opt, 9);
  EXPECT_GT(r.estimate, 0.0);
  EXPECT_GT(r.units_used, 0u);
  // The estimate must be at least the largest cycle power sampled directly.
  seq::SequentialSimulator sim2(acc);
  seq::SequencePopulation probe(sim2);
  mpe::Rng rng2(10);
  double observed = 0.0;
  for (int i = 0; i < 200; ++i) observed = std::max(observed, probe.draw(rng2));
  EXPECT_GT(r.estimate, 0.7 * observed);
}

TEST(SeqSim, ContractChecks) {
  const auto counter = seq::make_counter(4);
  seq::SequentialSimulator sim(counter);
  const std::vector<std::uint8_t> too_many = {1, 0};
  EXPECT_THROW(sim.step(too_many), mpe::ContractViolation);
  const std::vector<std::uint8_t> bad_state = {1};
  EXPECT_THROW(sim.set_state(bad_state), mpe::ContractViolation);
}

}  // namespace
