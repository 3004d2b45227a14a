// Baseline shoot-out across the method families the paper's related-work
// section surveys, at equal simulation budget on the same population:
//   * SRS           — max of random units [9-ish]
//   * quantile est. — empirical high-quantile [10]
//   * greedy search — ATPG-flavored bit climbing [5][6]
//   * genetic       — K2-style GA [8]
//   * EVT (ours)    — the paper's estimator
// Vector-search methods produce lower bounds with no error control; the
// statistical methods produce estimates with confidence. The table reports
// each method's estimate relative to the population's true maximum.
//
// Flags: --pop N (default 30000), --runs R (default 10), --seed S,
// --circuits c3540
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) try {
  using namespace mpe;
  bench::CampaignOptions defaults;
  defaults.population_size = 30'000;
  defaults.runs = 10;
  defaults.circuits = {"c3540"};
  bench::CampaignOptions opt =
      bench::parse_common_flags(argc, argv, defaults);
  opt.kind = bench::PopulationKind::kHighActivity;

  const auto circuits = bench::build_circuits(opt);
  const auto& netlist = circuits.front();
  std::fprintf(stderr, "[bench] %s: simulating %zu units...\n",
               netlist.name().c_str(), opt.population_size);
  auto pop = bench::build_population(netlist, opt);
  std::printf(
      "=== Baselines at equal budget on %s (|V| = %zu, true max %.4f mW) "
      "===\n\n",
      netlist.name().c_str(), opt.population_size, pop.true_max());

  // First, establish the EVT budget: average units per converged run.
  maxpower::EstimatorOptions est;
  est.epsilon = opt.epsilon;
  est.confidence = opt.confidence;
  double evt_mean = 0.0, evt_bias = 0.0;
  std::size_t budget = 0;
  for (std::size_t r = 0; r < opt.runs; ++r) {
    const auto res =
        maxpower::estimate_max_power(pop, est, stream_seed(opt.seed, r));
    evt_mean += std::fabs(res.estimate - pop.true_max());
    evt_bias += res.estimate - pop.true_max();
    budget += res.units_used;
  }
  budget /= opt.runs;
  evt_mean /= static_cast<double>(opt.runs);
  evt_bias /= static_cast<double>(opt.runs);

  Table table({"method", "mean |error|", "mean signed error",
               "units/run", "error control?"});
  const double tm = pop.true_max();
  table.add_row({"EVT estimator (ours)", Table::pct(evt_mean / tm),
                 Table::pct(evt_bias / tm),
                 Table::integer(static_cast<long long>(budget)),
                 "yes (eps, l)"});

  // SRS at the same budget.
  {
    Rng r2(opt.seed + 1);
    double abs_err = 0.0, bias = 0.0;
    for (std::size_t r = 0; r < opt.runs; ++r) {
      const auto s = maxpower::srs_estimate(pop, budget, r2);
      abs_err += std::fabs(s.estimate - tm);
      bias += s.estimate - tm;
    }
    table.add_row({"SRS", Table::pct(abs_err / opt.runs / tm),
                   Table::pct(bias / opt.runs / tm),
                   Table::integer(static_cast<long long>(budget)), "no"});
  }
  // Quantile baseline at the same budget (q = 1 - 1/|V|, its best shot).
  {
    Rng r2(opt.seed + 2);
    const double q =
        1.0 - 1.0 / static_cast<double>(opt.population_size);
    double abs_err = 0.0, bias = 0.0;
    for (std::size_t r = 0; r < opt.runs; ++r) {
      const auto s = maxpower::quantile_baseline(pop, budget, q, r2);
      abs_err += std::fabs(s.estimate - tm);
      bias += s.estimate - tm;
    }
    table.add_row({"empirical quantile [10]",
                   Table::pct(abs_err / opt.runs / tm),
                   Table::pct(bias / opt.runs / tm),
                   Table::integer(static_cast<long long>(budget)), "no"});
  }
  // Vector-search methods need the simulator, not the cached population.
  {
    sim::CyclePowerEvaluator evaluator(netlist);
    Rng r2(opt.seed + 3);
    maxpower::GreedyOptions gopt;
    gopt.max_evaluations = budget;
    double abs_err = 0.0, bias = 0.0;
    for (std::size_t r = 0; r < opt.runs; ++r) {
      const auto s = maxpower::greedy_search(evaluator, gopt, r2);
      abs_err += std::fabs(s.best_power_mw - tm);
      bias += s.best_power_mw - tm;
    }
    table.add_row({"greedy search [5][6]",
                   Table::pct(abs_err / opt.runs / tm),
                   Table::pct(bias / opt.runs / tm),
                   Table::integer(static_cast<long long>(budget)),
                   "no (lower bound)"});
  }
  {
    sim::CyclePowerEvaluator evaluator(netlist);
    Rng r2(opt.seed + 4);
    maxpower::GeneticOptions gopt;
    // Match the budget: population * generations ~ budget.
    gopt.population = 32;
    gopt.generations = std::max<std::size_t>(budget / gopt.population, 2);
    double abs_err = 0.0, bias = 0.0;
    for (std::size_t r = 0; r < opt.runs; ++r) {
      const auto s = maxpower::genetic_search(evaluator, gopt, r2);
      abs_err += std::fabs(s.best_power_mw - tm);
      bias += s.best_power_mw - tm;
    }
    table.add_row({"genetic search [8]",
                   Table::pct(abs_err / opt.runs / tm),
                   Table::pct(bias / opt.runs / tm),
                   Table::integer(static_cast<long long>(budget)),
                   "no (lower bound)"});
  }

  std::cout << table;

  // Closed-form bracket for context: the zero-delay upper bound (every node
  // toggles once) and the analytic average from transition-density
  // propagation.
  const auto bounds =
      maxpower::power_bounds(netlist, sim::Technology{}, 0.5, 0.5);
  std::printf(
      "\nclosed-form context: analytic average %.3f mW; zero-delay "
      "(functional) ceiling\n%.3f mW. The simulated population max %.3f mW "
      "EXCEEDS the functional ceiling —\nglitch power, exactly the "
      "component zero-delay bound-propagation methods [1]\ncannot see, "
      "which is the paper's core argument for simulation-based "
      "estimation.\n",
      bounds.analytic_average_mw, bounds.zero_delay_upper_mw,
      pop.true_max());
  std::printf(
      "\nReading: search methods can find strong pairs but certify nothing, "
      "and their\npositive 'error' shows the population max itself "
      "understates the full-space\nmaximum. SRS is competitive when the "
      "budget is a large fraction of |V| (as\nhere); the crossover_analysis "
      "bench shows it collapsing as |V| grows while the\nEVT cost stays "
      "flat. Only the EVT estimator ships an (epsilon, confidence)\n"
      "guarantee with its number.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
