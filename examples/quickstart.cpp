// Quickstart: estimate the maximum cycle power of a circuit to a
// user-specified error and confidence level — the paper's headline use case.
//
//   ./quickstart [--circuit c880] [--epsilon 0.05] [--confidence 0.9]
//                [--seed 1]
//
// The circuit is an ISCAS-85-scale generated stand-in (or pass --bench
// path/to/file.bench to use a real netlist). Estimation streams fresh
// random vector pairs through the event-driven power simulator; no
// population is materialized and no ground truth is needed.
#include <cstdio>
#include <exception>

#include "mpe.hpp"

int main(int argc, char** argv) try {
  const mpe::Cli cli(argc, argv);
  cli.check_known({"circuit", "epsilon", "confidence", "seed", "bench"});
  const std::string circuit = cli.get("circuit", "c880");
  const double epsilon = cli.get_double("epsilon", 0.05);
  const double confidence = cli.get_double("confidence", 0.90);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // 1. Get a circuit: a named preset stand-in, or a real .bench file.
  mpe::circuit::Netlist netlist =
      cli.has("bench") ? mpe::circuit::read_bench_file(cli.get("bench", ""))
                       : mpe::gen::build_preset(circuit, seed);
  const auto st = netlist.stats();
  std::printf("circuit %s: %zu inputs, %zu outputs, %zu gates, depth %zu\n",
              netlist.name().c_str(), st.num_inputs, st.num_outputs,
              st.num_gates, st.depth);

  // 2. Wire up the simulator (fanout-loaded delays, inertial glitch
  //    filtering, 3.3V @ 50 MHz defaults) and a vector-pair source.
  mpe::sim::CyclePowerEvaluator evaluator(netlist);
  const mpe::vec::UniformPairGenerator pairs(netlist.num_inputs());
  mpe::vec::StreamingPopulation population(pairs, evaluator);

  // 3. Run the DAC'98 iterative estimator.
  mpe::maxpower::EstimatorOptions options;
  options.epsilon = epsilon;
  options.confidence = confidence;
  const auto result =
      mpe::maxpower::estimate_max_power(population, options, seed);

  std::printf(
      "\nestimated maximum power : %.4f mW\n"
      "confidence interval     : [%.4f, %.4f] mW at %.0f%% confidence\n"
      "relative error bound    : %.2f%% (target %.2f%%)\n"
      "vector pairs simulated  : %zu (%zu hyper-samples)\n"
      "converged               : %s\n",
      result.estimate, result.ci.lower, result.ci.upper, confidence * 100.0,
      result.relative_error_bound * 100.0, epsilon * 100.0,
      result.units_used, result.hyper_samples,
      result.converged ? "yes" : "no");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
