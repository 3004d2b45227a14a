// Power database construction: fully simulate a finite population of vector
// pairs (the paper simulated its 160k/80k-unit populations with PowerMill to
// obtain ground truth) and package the values as a FinitePopulation.
#pragma once

#include <functional>

#include "vectors/population.hpp"

namespace mpe::vec {

/// Options for database construction.
struct PowerDbOptions {
  std::size_t population_size = 160'000;
  /// Invoked every `progress_stride` simulated units (0 disables).
  std::size_t progress_stride = 0;
  std::function<void(std::size_t done, std::size_t total)> on_progress;
};

/// Simulates `options.population_size` pairs from `generator` on
/// `evaluator`'s netlist and returns the materialized population. Pairs are
/// evaluated in batches on the fast simulator of the evaluator's delay model
/// (vec::PowerBatcher); every value equals evaluator.power_mw on its pair.
FinitePopulation build_power_database(const PairGenerator& generator,
                                      sim::CyclePowerEvaluator& evaluator,
                                      const PowerDbOptions& options, Rng& rng);

}  // namespace mpe::vec
