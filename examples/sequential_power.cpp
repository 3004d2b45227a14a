// Sequential maximum-power estimation: the EVT estimator applied to
// per-cycle power of clocked circuits (counters, LFSRs, accumulators) under
// random input streams — extending the paper's combinational setting to the
// sequential problem its related work ([4]) targets.
//
//   ./sequential_power [--bits 16] [--epsilon 0.08] [--seed 1]
#include <cstdio>
#include <exception>
#include <iostream>

#include "mpe.hpp"

namespace {

void run_one(const char* label, mpe::seq::SequentialNetlist netlist,
             double epsilon, std::uint64_t seed, mpe::Table& table) {
  mpe::seq::SequentialSimulator simulator(netlist);
  mpe::seq::SequencePopulation population(simulator);

  // Direct sampling for context: average power over a random stream.
  mpe::Rng probe_rng(seed + 1);
  double avg = 0.0;
  const int probe_n = 400;
  for (int i = 0; i < probe_n; ++i) avg += population.draw(probe_rng);
  avg /= probe_n;

  mpe::seq::SequentialSimulator est_sim(netlist);
  mpe::seq::SequencePopulation est_pop(est_sim);
  mpe::maxpower::EstimatorOptions options;
  options.epsilon = epsilon;
  const auto r = mpe::maxpower::estimate_max_power(est_pop, options, seed);

  table.add_row(
      {label,
       mpe::Table::integer(
           static_cast<long long>(netlist.num_state_bits())),
       mpe::Table::integer(
           static_cast<long long>(netlist.core().num_gates())),
       mpe::Table::num(avg, 4), mpe::Table::num(r.estimate, 4),
       "[" + mpe::Table::num(r.ci.lower, 3) + ", " +
           mpe::Table::num(r.ci.upper, 3) + "]",
       mpe::Table::integer(static_cast<long long>(r.units_used))});
}

}  // namespace

int main(int argc, char** argv) try {
  const mpe::Cli cli(argc, argv);
  cli.check_known({"bits", "epsilon", "seed"});
  const auto bits =
      static_cast<std::size_t>(cli.get_int("bits", 16));
  const double epsilon = cli.get_double("epsilon", 0.08);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  std::printf(
      "EVT maximum cycle-power estimation on sequential circuits "
      "(%zu-bit, eps = %.0f%% @ 90%%)\n\n",
      bits, epsilon * 100.0);

  mpe::Table table({"circuit", "FFs", "gates", "avg power (mW)",
                    "est. max power (mW)", "90% CI (mW)", "cycles"});
  run_one("binary counter", mpe::seq::make_counter(bits), epsilon, seed,
          table);
  run_one("LFSR (x^16+x^14+x^13+x^11+1)",
          mpe::seq::make_lfsr(16, {16, 14, 13, 11}), epsilon, seed, table);
  run_one("shift register", mpe::seq::make_shift_register(bits), epsilon,
          seed, table);
  run_one("accumulator", mpe::seq::make_accumulator(bits), epsilon, seed,
          table);
  std::cout << table;
  std::printf(
      "\nPer-cycle powers along a random input stream are state-correlated; "
      "the\nblock-maxima construction (n = 30 cycles per sample) remains "
      "valid for such\nmixing sequences, which is what lets the "
      "combinational method carry over.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
