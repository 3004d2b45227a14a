// Crossover analysis (beyond the paper's tables, motivated by them):
//
//  Part A — the estimator's intrinsic target gap. The finite-population
//  estimator targets the parent's (1 - 1/|V|) quantile; the paper compares
//  against the *realized* maximum of the |V| simulated units. For
//  short-tailed populations the two coincide; the heavier the tail, the
//  further the realized maximum floats above the quantile, bounding any
//  quantile-based method's accuracy. We measure the gap directly by
//  building an oversized population and comparing disjoint |V|-blocks.
//
//  Part B — where EVT overtakes SRS. The EVT estimator's cost is roughly
//  |V|-independent (hyper-samples until the CI closes); SRS's cost scales
//  with 1/Y, and Y shrinks as |V| grows. Sweeping |V| shows the crossover.
//
// Flags: --pop N (block size for part A / max for part B, default 20000),
// --runs R (default 15), --seed S, --circuits c880
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) try {
  using namespace mpe;
  bench::CampaignOptions defaults;
  defaults.population_size = 20'000;
  defaults.runs = 15;
  defaults.circuits = {"c880"};
  bench::CampaignOptions opt =
      bench::parse_common_flags(argc, argv, defaults);
  opt.kind = bench::PopulationKind::kHighActivity;

  const auto circuits = bench::build_circuits(opt);
  const auto& netlist = circuits.front();
  const std::size_t v = opt.population_size;
  constexpr std::size_t kBlocks = 5;

  // ---- Part A: target gap ------------------------------------------------
  std::printf(
      "=== Part A: realized max vs (1 - 1/|V|) quantile on %s, |V| = %zu "
      "===\n",
      netlist.name().c_str(), v);
  std::fprintf(stderr, "[bench] simulating %zu units (%zu blocks)...\n",
               v * kBlocks, kBlocks);
  const vec::HighActivityPairGenerator gen(netlist.num_inputs(),
                                           opt.min_activity);
  vec::ParallelPowerDbOptions pdb;
  pdb.population_size = v * kBlocks;
  pdb.seed = opt.seed;
  const auto big =
      vec::build_power_database_parallel(netlist, gen, {}, pdb);

  std::vector<double> sorted(big.values().begin(), big.values().end());
  std::sort(sorted.begin(), sorted.end());
  const double quantile =
      sorted[static_cast<std::size_t>((1.0 - 1.0 / static_cast<double>(v)) *
                                      static_cast<double>(sorted.size() - 1))];
  Table gap({"block", "realized max (mW)", "gap above quantile"});
  double gap_sum = 0.0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto begin = big.values().begin() +
                       static_cast<std::ptrdiff_t>(b * v);
    const double block_max = *std::max_element(
        begin, begin + static_cast<std::ptrdiff_t>(v));
    const double g = (block_max - quantile) / quantile;
    gap_sum += g;
    gap.add_row({Table::integer(static_cast<long long>(b)),
                 Table::num(block_max, 4), Table::pct(g)});
  }
  std::cout << gap;
  std::printf(
      "q(1 - 1/|V|) = %.4f mW; mean gap %+0.1f%%. This gap is the accuracy\n"
      "floor of ANY (1-1/|V|)-quantile estimator against the realized max —\n"
      "on the paper's short-tailed PowerMill populations it is ~0.\n\n",
      quantile, 100.0 * gap_sum / kBlocks);

  // ---- Part B: SRS crossover ----------------------------------------------
  std::printf("=== Part B: EVT vs SRS unit cost as |V| grows ===\n");
  Table cross({"|V|", "Y (qualified)", "SRS units (theory)",
               "EVT units (avg)", "EVT wins?"});
  for (std::size_t size : {v / 4, v / 2, v, 2 * v}) {
    // Reuse prefixes of the oversized pool instead of fresh simulation.
    std::vector<double> values(big.values().begin(),
                               big.values().begin() +
                                   static_cast<std::ptrdiff_t>(
                                       std::min(size, big.values().size())));
    vec::FinitePopulation pop(std::move(values), "prefix");
    const double y = pop.qualified_fraction(opt.epsilon);
    const double srs_units =
        (y > 0.0 && y < 1.0)
            ? maxpower::srs_required_units(y, opt.confidence)
            : 0.0;
    maxpower::EstimatorOptions est;
    est.epsilon = opt.epsilon;
    est.confidence = opt.confidence;
    double units = 0.0;
    for (std::size_t r = 0; r < opt.runs; ++r) {
      units += static_cast<double>(
          maxpower::estimate_max_power(pop, est,
                                       stream_seed(opt.seed + size, r))
              .units_used);
    }
    units /= static_cast<double>(opt.runs);
    cross.add_row({Table::integer(static_cast<long long>(size)),
                   Table::num(y, 6),
                   Table::integer(static_cast<long long>(srs_units)),
                   Table::integer(static_cast<long long>(units)),
                   units < srs_units ? "yes" : "no"});
  }
  std::cout << cross;
  std::printf(
      "\nReading: EVT's unit cost is roughly flat in |V| while SRS's "
      "requirement grows\nwith 1/Y — the crossover happens once the "
      "qualified fraction drops below ~1e-4,\nwhich is exactly the paper's "
      "regime (|V| = 160k).\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
