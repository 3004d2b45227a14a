// The estimation engine: ONE run loop for the paper's iterative procedure
// (Figure 4), composed from three pluggable layers instead of hand-woven
// code paths:
//
//   UnitSource       — where unit values come from (maxpower/unit_source.hpp)
//   TailFitter       — how sample maxima become one estimate
//                      (maxpower/tail_fitter.hpp)
//   StoppingRule[]   — when the run ends (maxpower/stopping.hpp)
//
// run() draws hyper-sample i from its own counter-derived stream
// stream_seed(seed, i) in one pipelined loop: the caller and its pool
// helpers (dispatched once per run) each claim the next index, draw it,
// and fold every completed index in index order under one lock, never more
// than `threads` indices ahead of the fold. replay() is the same loop with
// one participant whose draws are hyper-samples computed elsewhere (shard
// workers).
//
// The paper's Figure-4 loop and its Student-t interval need only
// independent hyper-samples, which the per-index streams provide; the
// result is therefore a function of the seed alone, never of the thread
// count, the schedule or the host that drew a hyper-sample.
//
// Cross-cutting services (tracing, metrics, checkpointing, run control)
// live in one RunContext (maxpower/run_context.hpp) threaded through the
// loop once. estimate_max_power is a thin wrapper over an Engine with the
// default strategy composition.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "maxpower/estimator.hpp"

namespace mpe::maxpower {

class StoppingRule;  // maxpower/stopping.hpp
class TailFitter;    // maxpower/tail_fitter.hpp
class UnitSource;    // maxpower/unit_source.hpp

/// Full engine configuration: the estimator options plus the strategy
/// composition. Defaults reproduce the paper (and estimate_max_power)
/// exactly.
struct EngineConfig {
  EstimatorOptions options;
  /// Tail-fit strategy; null selects the paper's reversed-Weibull MLE
  /// (default_tail_fitter()).
  std::shared_ptr<const TailFitter> fitter;
  /// Termination chain, consulted in order; empty selects
  /// default_stopping_chain() — budget, run control, then the
  /// options.interval convergence rule. A non-empty chain REPLACES the
  /// default: include HyperBudgetRule (or an equivalent) or the run is
  /// bounded only by the budget epilogue's attempt cap.
  std::vector<std::shared_ptr<StoppingRule>> stopping;
};

/// The layered estimation engine. An Engine is cheap to construct and
/// reusable; run() is const and may be called repeatedly. The built-in
/// strategies are stateless, so one Engine can serve concurrent runs —
/// custom stateful StoppingRules are the one exception (use one Engine per
/// run in that case).
///
/// Checkpoint compatibility: the default composition fingerprints runs
/// exactly as estimate_max_power does. A non-default fitter or stopping
/// chain folds the strategy names into the fingerprint — resuming a run
/// under a different composition is a hard kPrecondition refusal, never a
/// silently different continuation.
class Engine {
 public:
  Engine() = default;
  explicit Engine(EngineConfig config) : config_(std::move(config)) {}

  const EngineConfig& config() const { return config_; }

  /// The paper's Figure-4 loop: hyper-sample i draws from the
  /// counter-derived stream stream_seed(seed, i); up to `threads`
  /// participants draw concurrently (when the source allows it), at most
  /// `threads` - 1 indices past the last folded one, and the stopping chain
  /// is applied in index order. Bit-identical for every thread count:
  /// `parallel` changes wall time only. Returns once every helper that
  /// joined the run has left it; helpers the pool has not started yet are
  /// not waited for.
  EstimationResult run(UnitSource& source, std::uint64_t seed,
                       const ParallelOptions& parallel = {}) const;
  EstimationResult run(vec::Population& population, std::uint64_t seed,
                       const ParallelOptions& parallel = {}) const;

  /// One pre-computed hyper-sample for replay(): the draw for index
  /// `index` of the stream_seed(seed, index) RNG stream, as produced by
  /// draw_hyper_sample. Whether it was usable is re-derived by the fold.
  struct ReplaySample {
    HyperSampleResult hs;
    std::uint64_t index = 0;
  };

  /// Re-runs the fold + stopping chain over hyper-samples computed
  /// elsewhere (e.g. shard workers on other hosts). `samples` must be the
  /// contiguous index-ordered prefix 0..samples.size()-1 of the run's draw
  /// sequence for `seed`; the result is then bit-identical to
  /// run(source, seed, ...) whenever the recorded prefix covers the point
  /// where that run stops (convergence, budget, or redraw exhaustion).
  /// If the prefix runs out earlier, the returned partial result is a
  /// probe: not converged and not budget-terminal, and callers must
  /// discard it. Checkpointing, tracing, and run control are disabled —
  /// replay is a pure deterministic fold: run()'s loop with one participant
  /// whose draw of index i returns samples[i].
  EstimationResult replay(std::uint64_t seed,
                          const std::vector<ReplaySample>& samples) const;

 private:
  EngineConfig config_;
};

}  // namespace mpe::maxpower
