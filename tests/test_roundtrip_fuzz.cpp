// Randomized round-trip properties across the interchange formats: any
// generated netlist must survive bench -> verilog -> bench conversion with
// its function intact, and the two simulators must agree on it. This is the
// closest thing to a fuzzer the deterministic test suite runs.
#include <gtest/gtest.h>

#include "circuit/analysis.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/verilog_io.hpp"
#include "gen/random_dag.hpp"
#include "sim/event_sim.hpp"
#include "sim/zero_delay_sim.hpp"
#include "util/rng.hpp"

namespace {

namespace ckt = mpe::circuit;

class RoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

mpe::gen::RandomDagParams params_for(std::uint64_t seed) {
  mpe::gen::RandomDagParams p;
  p.name = "fuzz" + std::to_string(seed);
  mpe::Rng rng(seed);
  p.num_inputs = 4 + rng.below(24);
  p.num_outputs = 1 + rng.below(8);
  p.num_gates = std::max<std::size_t>(
      30 + rng.below(250), p.num_inputs / 3 + 2);
  p.max_fanin = 2 + rng.below(3);
  p.unary_fraction = rng.uniform(0.0, 0.3);
  p.locality = rng.uniform(0.0, 0.95);
  return p;
}

TEST_P(RoundTripFuzz, BenchToVerilogToBenchPreservesFunction) {
  mpe::Rng gen_rng(GetParam());
  auto p = params_for(GetParam());
  auto original = mpe::gen::random_dag(p, gen_rng);

  // bench -> netlist -> verilog -> netlist.
  const auto as_bench = ckt::write_bench_string(original);
  auto from_bench = ckt::read_bench_string(as_bench, p.name);
  const auto as_verilog = ckt::write_verilog_string(from_bench);
  auto from_verilog = ckt::read_verilog_string(as_verilog);

  ASSERT_EQ(from_verilog.num_inputs(), original.num_inputs());
  ASSERT_EQ(from_verilog.num_outputs(), original.num_outputs());
  ASSERT_EQ(from_verilog.num_gates(), original.num_gates());

  mpe::Rng vec_rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> in(original.num_inputs());
    for (auto& b : in) b = vec_rng.bernoulli(0.5) ? 1 : 0;
    const auto v1 = ckt::evaluate(original, in);
    const auto v2 = ckt::evaluate(from_verilog, in);
    for (std::size_t o = 0; o < original.outputs().size(); ++o) {
      ASSERT_EQ(v1[original.outputs()[o]], v2[from_verilog.outputs()[o]])
          << "seed=" << GetParam() << " trial=" << trial << " output " << o;
    }
  }
}

TEST_P(RoundTripFuzz, EventAndZeroDelaySimulatorsAgree) {
  mpe::Rng gen_rng(GetParam() + 1000);
  auto p = params_for(GetParam() + 1000);
  auto nl = mpe::gen::random_dag(p, gen_rng);

  mpe::sim::EventSimOptions eo;
  eo.delay_model = mpe::sim::DelayModel::kZero;
  mpe::sim::EventSimulator ev(nl, eo);
  mpe::sim::ZeroDelaySimulator zd(nl, mpe::sim::Technology{});

  mpe::Rng vec_rng(GetParam() ^ 0x123456);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
    for (auto& b : v1) b = vec_rng.bernoulli(0.5) ? 1 : 0;
    for (auto& b : v2) b = vec_rng.bernoulli(0.5) ? 1 : 0;
    const auto a = ev.evaluate(v1, v2);
    const auto b = zd.evaluate(v1, v2);
    ASSERT_EQ(a.toggles, b.toggles) << "seed=" << GetParam();
    ASSERT_NEAR(a.energy_pj, b.energy_pj, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
