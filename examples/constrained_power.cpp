// Constrained maximum power (the paper's category I.2): estimate the
// maximum cycle power when the input statistics are constrained to a given
// per-line transition probability — e.g. a bus that switches rarely versus
// a hot datapath — and show how the maximum scales with input activity.
//
//   ./constrained_power [--circuit c432] [--seed 1] [--epsilon 0.05]
#include <cstdio>
#include <exception>
#include <iostream>

#include "mpe.hpp"

int main(int argc, char** argv) try {
  const mpe::Cli cli(argc, argv);
  cli.check_known({"circuit", "seed", "epsilon"});
  const std::string circuit = cli.get("circuit", "c432");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double epsilon = cli.get_double("epsilon", 0.05);

  auto netlist = mpe::gen::build_preset(circuit, seed);
  std::printf("constrained maximum power on %s (%zu gates)\n",
              netlist.name().c_str(), netlist.num_gates());

  mpe::Table table({"transition prob", "est. max power (mW)",
                    "90% CI (mW)", "avg power (mW)", "units"});

  for (double tp : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    mpe::sim::CyclePowerEvaluator evaluator(netlist);
    const mpe::vec::TransitionProbPairGenerator pairs(netlist.num_inputs(),
                                                      tp);
    mpe::vec::StreamingPopulation population(pairs, evaluator);

    mpe::maxpower::EstimatorOptions options;
    options.epsilon = epsilon;
    const auto r =
        mpe::maxpower::estimate_max_power(population, options, seed);

    // Also report the average power over a quick random sample, to show
    // how far the maximum sits above the mean at each activity level.
    mpe::Rng rng2(seed + 1);
    double avg = 0.0;
    const int avg_n = 500;
    for (int i = 0; i < avg_n; ++i) avg += population.draw(rng2);
    avg /= avg_n;

    table.add_row({mpe::Table::num(tp, 1), mpe::Table::num(r.estimate, 3),
                   "[" + mpe::Table::num(r.ci.lower, 3) + ", " +
                       mpe::Table::num(r.ci.upper, 3) + "]",
                   mpe::Table::num(avg, 3),
                   mpe::Table::integer(static_cast<long long>(r.units_used))});
  }
  std::cout << table;
  std::printf(
      "\nThe maximum power scales with the constrained input activity —\n"
      "the estimator answers 'how bad can it get under MY input statistics',\n"
      "which vector-search methods for the unconstrained problem cannot.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
