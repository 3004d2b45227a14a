// Multi-threaded power database construction. Population simulation is
// embarrassingly parallel (units are i.i.d.), and it dominates bench
// runtime, so this is the fast path for large |V|.
//
// Determinism: units are generated in fixed-size chunks, each chunk with
// its own counter-derived RNG stream (stream_seed() in util/rng.hpp) — the
// resulting population is bit-identical for any thread count (including 1),
// and reproducible from the seed alone. Work is scheduled on a
// util::ThreadPool; one batch simulator (vec::PowerBatcher: the compiled
// tape under zero delay, the 64-lane event simulator otherwise) is kept per
// worker slot.
#pragma once

#include <cstdint>

#include "circuit/netlist.hpp"
#include "sim/power_eval.hpp"
#include "vectors/population.hpp"

namespace mpe::vec {

/// Options for the parallel builder.
struct ParallelPowerDbOptions {
  std::size_t population_size = 160'000;
  std::uint64_t seed = 1;
  /// 0 = use std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Units per deterministic RNG chunk. Affects the value stream (a
  /// different chunk size is a different population), not correctness.
  std::size_t chunk = 1024;
};

/// Simulates the population on `threads` workers, each with its own
/// simulator instance over the shared netlist. Every value equals
/// CyclePowerEvaluator(netlist, eval_options).power_mw on the same pair. The
/// generator must be stateless across generate() calls (all library
/// generators are).
FinitePopulation build_power_database_parallel(
    const circuit::Netlist& netlist, const PairGenerator& generator,
    const sim::PowerEvalOptions& eval_options,
    const ParallelPowerDbOptions& options);

}  // namespace mpe::vec
