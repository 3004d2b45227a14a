#include "sim/event_sim.hpp"

#include <gtest/gtest.h>

#include "circuit/builder.hpp"
#include "gen/arithmetic.hpp"
#include "gen/random_dag.hpp"
#include "gen/trees.hpp"
#include "sim/zero_delay_sim.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace mpe::sim {

/// Ages a simulator: sets both epoch stamps as a long run would leave them.
struct EventSimulatorTestPeer {
  static void set_epochs(EventSimulator& s, std::uint32_t epoch) {
    s.epoch_ = epoch;
    s.ts_epoch_ = epoch;
  }
};

}  // namespace mpe::sim

namespace {

namespace ckt = mpe::circuit;
namespace sim = mpe::sim;

sim::EventSimOptions options(sim::DelayModel m, bool inertial = false) {
  sim::EventSimOptions o;
  o.delay_model = m;
  o.inertial = inertial;
  return o;
}

TEST(EventSim, AgreesWithZeroDelayOracleUnderZeroDelays) {
  // With all delays zero, the event simulator must count exactly the
  // functional toggles — same as the levelized two-pass oracle.
  mpe::gen::RandomDagParams p;
  p.num_inputs = 24;
  p.num_gates = 300;
  mpe::Rng gen_rng(15);
  auto nl = mpe::gen::random_dag(p, gen_rng);

  sim::EventSimulator ev(nl, options(sim::DelayModel::kZero));
  sim::ZeroDelaySimulator zd(nl, sim::Technology{});

  mpe::Rng rng(16);
  for (int t = 0; t < 100; ++t) {
    std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
    for (auto& b : v1) b = rng.bernoulli(0.5);
    for (auto& b : v2) b = rng.bernoulli(0.5);
    const auto re = ev.evaluate(v1, v2);
    const auto rz = zd.evaluate(v1, v2);
    EXPECT_EQ(re.toggles, rz.toggles) << "trial " << t;
    EXPECT_NEAR(re.energy_pj, rz.energy_pj, 1e-9);
  }
}

TEST(EventSim, StaticPairProducesNothing) {
  auto nl = mpe::gen::parity_tree(8, 2);
  sim::EventSimulator ev(nl, options(sim::DelayModel::kFanoutLoaded));
  std::vector<std::uint8_t> v(nl.num_inputs(), 1);
  const auto r = ev.evaluate(v, v);
  EXPECT_EQ(r.toggles, 0u);
  EXPECT_DOUBLE_EQ(r.energy_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.settle_time_ns, 0.0);
}

TEST(EventSim, GlitchOnRecovergentXor) {
  // z = a XOR a' where a' = NOT(NOT(a)) arrives later than a: under unit
  // delays a toggle on `a` produces a transient pulse at z (glitch) even
  // though the steady-state value is unchanged... build explicitly:
  // n1 = NOT(a); n2 = NOT(n1); z = XOR(a, n2). Steady state z = 0 always,
  // but a change of a reaches the XOR directly before n2 catches up.
  ckt::Netlist nl("glitch");
  nl.add_input("a");
  nl.add_gate(ckt::GateType::kNot, "n1", {"a"});
  nl.add_gate(ckt::GateType::kNot, "n2", {"n1"});
  nl.add_gate(ckt::GateType::kXor, "z", {"a", "n2"});
  nl.mark_output("z");
  nl.finalize();

  sim::EventSimulator ev(nl, options(sim::DelayModel::kUnit));
  const auto r = ev.evaluate(std::vector<std::uint8_t>{0},
                             std::vector<std::uint8_t>{1});
  // Nodes a, n1, n2 each toggle once; z glitches 0->1->0 (two toggles).
  EXPECT_EQ(r.toggles, 5u);
  EXPECT_GT(r.settle_time_ns, 0.0);

  // Zero-delay sim sees no z toggle at all.
  sim::ZeroDelaySimulator zd(nl, sim::Technology{});
  EXPECT_EQ(zd.evaluate(std::vector<std::uint8_t>{0},
                        std::vector<std::uint8_t>{1})
                .toggles,
            3u);
}

TEST(EventSim, InertialModeSwallowsNarrowGlitch) {
  // Same recovergent circuit: the XOR pulse is exactly as wide as one unit
  // delay... make it narrower than the XOR's own delay by using the
  // fanout-loaded model where XOR is slow. Compare transport vs inertial.
  ckt::Netlist nl("glitch2");
  nl.add_input("a");
  nl.add_gate(ckt::GateType::kNot, "n1", {"a"});
  nl.add_gate(ckt::GateType::kNot, "n2", {"n1"});
  nl.add_gate(ckt::GateType::kXor, "z", {"a", "n2"});
  nl.mark_output("z");
  nl.finalize();

  sim::EventSimulator transport(
      nl, options(sim::DelayModel::kFanoutLoaded, false));
  sim::EventSimulator inertial(
      nl, options(sim::DelayModel::kFanoutLoaded, true));
  const auto rt = transport.evaluate(std::vector<std::uint8_t>{0},
                                     std::vector<std::uint8_t>{1});
  const auto ri = inertial.evaluate(std::vector<std::uint8_t>{0},
                                    std::vector<std::uint8_t>{1});
  // The inverter-chain pulse (2 * ~0.2ns wide... width = delay(n2 path) -
  // direct path = two NOT delays) is narrower than the XOR delay, so the
  // inertial simulator drops the two glitch toggles.
  EXPECT_EQ(rt.toggles, 5u);
  EXPECT_EQ(ri.toggles, 3u);
  EXPECT_LT(ri.energy_pj, rt.energy_pj);
}

TEST(EventSim, SettleTimeTracksDepthUnderUnitDelay) {
  // A chain of k inverters settles at exactly k * unit_delay.
  ckt::Netlist nl("chain");
  nl.add_input("a");
  std::string prev = "a";
  const int k = 7;
  for (int i = 0; i < k; ++i) {
    const std::string cur = "n" + std::to_string(i);
    nl.add_gate(ckt::GateType::kNot, cur, {prev});
    prev = cur;
  }
  nl.finalize();
  sim::EventSimOptions o = options(sim::DelayModel::kUnit);
  sim::EventSimulator ev(nl, o);
  const auto r = ev.evaluate(std::vector<std::uint8_t>{0},
                             std::vector<std::uint8_t>{1});
  EXPECT_NEAR(r.settle_time_ns, k * o.tech.unit_delay_ns, 1e-9);
  EXPECT_EQ(r.toggles, static_cast<std::size_t>(k) + 1);
}

TEST(EventSim, GlitchPowerExceedsFunctionalPowerOnMultiplier) {
  // Array multipliers are the canonical glitchy circuit: event-driven power
  // with real delays must exceed the zero-delay (functional) power for
  // busy input pairs, and never be below it.
  auto nl = mpe::gen::array_multiplier(8);
  sim::EventSimulator ev(nl, options(sim::DelayModel::kFanoutLoaded));
  sim::ZeroDelaySimulator zd(nl, sim::Technology{});
  mpe::Rng rng(77);
  double sum_event = 0.0, sum_zero = 0.0;
  for (int t = 0; t < 60; ++t) {
    std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
    for (auto& b : v1) b = rng.bernoulli(0.5);
    for (auto& b : v2) b = rng.bernoulli(0.5);
    const auto re = ev.evaluate(v1, v2);
    const auto rz = zd.evaluate(v1, v2);
    EXPECT_GE(re.toggles + 1e-9, rz.toggles);
    sum_event += re.energy_pj;
    sum_zero += rz.energy_pj;
  }
  EXPECT_GT(sum_event, 1.15 * sum_zero);  // meaningful glitch component
}

TEST(EventSim, InertialNeverExceedsTransportEnergy) {
  auto nl = mpe::gen::array_multiplier(6);
  sim::EventSimulator transport(
      nl, options(sim::DelayModel::kFanoutLoaded, false));
  sim::EventSimulator inertial(
      nl, options(sim::DelayModel::kFanoutLoaded, true));
  mpe::Rng rng(78);
  for (int t = 0; t < 40; ++t) {
    std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
    for (auto& b : v1) b = rng.bernoulli(0.5);
    for (auto& b : v2) b = rng.bernoulli(0.5);
    const auto rt = transport.evaluate(v1, v2);
    const auto ri = inertial.evaluate(v1, v2);
    EXPECT_LE(ri.energy_pj, rt.energy_pj + 1e-9) << t;
  }
}

TEST(EventSim, FinalValuesMatchFunctionalSimulation) {
  // Regardless of delays and glitches, the settled values must equal the
  // zero-delay evaluation of v2 — check via output-observable parity.
  auto nl = mpe::gen::parity_tree(12, 2);
  sim::EventSimulator ev(nl, options(sim::DelayModel::kFanoutLoaded));
  mpe::Rng rng(79);
  for (int t = 0; t < 50; ++t) {
    std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
    for (auto& b : v1) b = rng.bernoulli(0.5);
    for (auto& b : v2) b = rng.bernoulli(0.5);
    // Count parity toggles: total toggles on the output node must make its
    // final value equal the functional value. Use energy parity trick: run
    // (v1->v2) then (v2->v2): the second run must be silent, proving the
    // simulator's internal state settled consistently.
    ev.evaluate(v1, v2);
    const auto quiet = ev.evaluate(v2, v2);
    EXPECT_EQ(quiet.toggles, 0u);
  }
}

TEST(EventSim, DeterministicAcrossRepeats) {
  auto nl = mpe::gen::array_multiplier(6);
  sim::EventSimulator ev(nl, options(sim::DelayModel::kFanoutLoaded));
  std::vector<std::uint8_t> v1(nl.num_inputs(), 0), v2(nl.num_inputs(), 1);
  const auto a = ev.evaluate(v1, v2);
  const auto b = ev.evaluate(v1, v2);
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_DOUBLE_EQ(a.energy_pj, b.energy_pj);
  EXPECT_DOUBLE_EQ(a.settle_time_ns, b.settle_time_ns);
}

TEST(EventSim, EpochsRestartEachCycle) {
  // Gates and nodes are marked with uint32_t wave/timestamp epochs. A
  // simulator whose epochs sit just below the wrap point (as after ~2^32
  // waves) must still match a fresh one: without the per-cycle restart, the
  // third wave would reach epoch 0 and take every never-marked gate for one
  // already queued, dropping its re-evaluation.
  mpe::gen::RandomDagParams p;
  p.num_inputs = 24;
  p.num_gates = 300;
  mpe::Rng gen_rng(21);
  const auto nl = mpe::gen::random_dag(p, gen_rng);
  const auto opt = options(sim::DelayModel::kFanoutLoaded, true);
  sim::EventSimulator fresh(nl, opt);
  sim::EventSimulator aged(nl, opt);
  mpe::Rng rng(22);
  for (int t = 0; t < 50; ++t) {
    std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
    for (auto& b : v1) b = rng.bernoulli(0.5);
    for (auto& b : v2) b = rng.bernoulli(0.5);
    sim::EventSimulatorTestPeer::set_epochs(aged, 0xffffffffu - 2);
    const auto want = fresh.evaluate(v1, v2);
    const auto got = aged.evaluate(v1, v2);
    EXPECT_EQ(got.energy_pj, want.energy_pj) << "pair " << t;
    EXPECT_EQ(got.toggles, want.toggles) << "pair " << t;
    EXPECT_EQ(got.settle_time_ns, want.settle_time_ns) << "pair " << t;
  }
}

TEST(EventSim, EventCapMustFitTheEpochRange) {
  // The epochs are uint32_t stamps that restart every cycle; a cap at or
  // above 2^32 events would let a single evaluate() wrap them.
  mpe::gen::RandomDagParams p;
  p.num_inputs = 8;
  p.num_gates = 20;
  mpe::Rng gen_rng(23);
  const auto nl = mpe::gen::random_dag(p, gen_rng);
  sim::EventSimOptions opt;
  opt.max_events = std::size_t{1} << 32;
  EXPECT_THROW(sim::EventSimulator(nl, opt), mpe::ContractViolation);
  opt.max_events = (std::size_t{1} << 32) - 1;
  EXPECT_NO_THROW(sim::EventSimulator(nl, opt));
}

}  // namespace
