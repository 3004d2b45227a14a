// Maximum-delay estimation (the extension suggested in the paper's
// conclusion): apply the same extreme-value machinery to the per-cycle
// settle time of the event-driven simulator, statistically estimating the
// longest sensitizable path delay — and compare against the structural
// (topological) bound, which ignores sensitization and is pessimistic.
//
//   ./delay_estimation [--circuit c1908] [--seed 1] [--epsilon 0.05]
#include <cstdio>
#include <exception>

#include "mpe.hpp"

int main(int argc, char** argv) try {
  const mpe::Cli cli(argc, argv);
  cli.check_known({"circuit", "seed", "epsilon"});
  const std::string circuit = cli.get("circuit", "c1908");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double epsilon = cli.get_double("epsilon", 0.05);

  auto netlist = mpe::gen::build_preset(circuit, seed);

  mpe::sim::EventSimOptions sim_options;
  sim_options.delay_model = mpe::sim::DelayModel::kFanoutLoaded;
  mpe::sim::EventSimulator simulator(netlist, sim_options);

  // Structural upper bound: sum the worst gate delay along the deepest
  // path. Cheap proxy: depth * max gate delay (very pessimistic), plus the
  // tighter per-level longest-path accumulation.
  double max_gate_delay = 0.0;
  for (double d : simulator.gate_delay()) {
    max_gate_delay = std::max(max_gate_delay, d);
  }
  const double crude_bound =
      static_cast<double>(netlist.depth()) * max_gate_delay;

  // Longest structural path under the real per-gate delays.
  std::vector<double> arrival(netlist.num_nodes(), 0.0);
  double topo_bound = 0.0;
  for (auto g : netlist.topo_order()) {
    const auto& gate = netlist.gate(g);
    double in_arrival = 0.0;
    for (auto n : gate.inputs) in_arrival = std::max(in_arrival, arrival[n]);
    arrival[gate.output] = in_arrival + simulator.gate_delay()[g];
    topo_bound = std::max(topo_bound, arrival[gate.output]);
  }

  std::printf("circuit %s: depth %zu, topological delay bound %.3f ns\n",
              netlist.name().c_str(), netlist.depth(), topo_bound);

  const mpe::vec::UniformPairGenerator pairs(netlist.num_inputs());
  mpe::maxpower::EstimatorOptions options;
  options.epsilon = epsilon;
  const auto r =
      mpe::maxdelay::estimate_max_delay(pairs, simulator, options, seed);

  std::printf(
      "\nEVT estimate of max sensitizable delay : %.3f ns\n"
      "confidence interval                    : [%.3f, %.3f] ns\n"
      "topological (structural) bound         : %.3f ns\n"
      "crude depth x max-gate bound           : %.3f ns\n"
      "vector pairs simulated                 : %zu\n"
      "converged                              : %s\n\n"
      "The statistical estimate <= the topological bound; the gap is the\n"
      "pessimism of purely structural timing (false paths, rare\n"
      "sensitization) that the paper's conclusion points at.\n",
      r.estimate, r.ci.lower, r.ci.upper, topo_bound, crude_bound,
      r.units_used, r.converged ? "yes" : "no");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
