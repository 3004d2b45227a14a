// RunContext — the engine's cross-cutting services, threaded through the
// run loop once instead of hand-woven into each execution path: structured
// tracing (util::Tracer), the global metric handles, durable checkpointing
// (CheckpointSink), and the structured-diagnostics recording helpers. The
// engine owns exactly one RunContext per run; strategies never touch these
// services directly, which is what keeps a new fitter or stopping rule a
// ~50-line class instead of a cross-cutting change.
//
// Contract (docs/ARCHITECTURE.md): RunContext is a pure *observer and
// recorder* — its methods append diagnostics, emit trace events, bump
// metrics, and persist snapshots, but never change the value sequence of a
// run. Goldens are bit-identical with tracing/metrics/checkpointing on or
// off.
#pragma once

#include <cstdint>
#include <string>

#include "maxpower/checkpoint.hpp"
#include "maxpower/estimator.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace mpe::maxpower {

namespace detail {

/// Estimator-level metric handles, registered once against the global
/// registry (docs/OBSERVABILITY.md catalogs every series).
struct EstimatorMetrics {
  util::Counter runs;
  util::Counter converged;
  util::Counter hyper_accepted;
  util::Counter hyper_discarded;
  util::Counter units;
  util::Counter speculation_wasted;
  util::Histogram hyper_per_run;
  util::Histogram run_wall_ns;

  EstimatorMetrics();
};

EstimatorMetrics& estimator_metrics();

}  // namespace detail

/// Durable-run-state hook of the live run loop. Inert (every
/// call a no-op) when EstimatorOptions::checkpoint_path is empty, so the
/// checkpoint feature costs one branch per accept when disabled. When
/// enabled it captures a full state snapshot at every accept boundary —
/// result, interval RNG state, next stream index — and persists every
/// k-th one atomically; stop paths flush the latest snapshot so a resumed
/// run never loses an accepted hyper-sample to a graceful stop.
class CheckpointSink {
 public:
  /// `fingerprint` is run_fingerprint() over the owning run's configuration
  /// (including any non-default strategy composition).
  CheckpointSink(const EstimatorOptions& options, std::uint64_t fingerprint,
                 std::uint64_t base_seed);

  bool enabled() const { return enabled_; }

  /// Loads an existing checkpoint into (`r`, `next_index`, `rng_state`).
  /// Returns false when there is no checkpoint (fresh run). Throws
  /// mpe::Error(kPrecondition) when the file belongs to a different run
  /// configuration or was written by the sequential path earlier releases
  /// had, kCorruptData/kParse/kIo when it is unusable — resuming
  /// the wrong state silently is never an option.
  bool try_resume(EstimationResult& r, std::uint64_t& next_index,
                  Rng::State& rng_state, bool& complete);

  /// Captures the accept-boundary snapshot: `r` immediately after the
  /// accept, the interval RNG at that instant, the next index the
  /// resumed loop should consume, and the index that produced this
  /// hyper-sample. Persists every k-th accept, and always when the run just
  /// converged (`complete`).
  void on_accept(const EstimationResult& r, const Rng::State& rng_state,
                 std::uint64_t next_index, std::uint64_t sample_index,
                 bool complete);

  /// Persists the newest captured snapshot if it has not been written yet.
  /// Called on every non-converged exit (deadline, cancel, fault, budget)
  /// so resumable state is on disk before the partial result is returned.
  void flush();

 private:
  void write();

  const EstimatorOptions& options_;
  bool enabled_ = false;
  bool dirty_ = false;
  std::size_t accepts_since_write_ = 0;
  RunCheckpoint snapshot_;
};

/// Per-run bundle of cross-cutting services plus the recording helpers the
/// run loop calls at its decision points. Non-owning views of the options
/// and tracer — both must outlive the run.
class RunContext {
 public:
  RunContext(const EstimatorOptions& options, std::uint64_t fingerprint,
             std::uint64_t base_seed);

  const EstimatorOptions& options() const { return options_; }
  util::Tracer* tracer() const { return options_.tracer; }
  CheckpointSink& checkpoint() { return checkpoint_; }

  /// Flags sources too small for the sampling design: with |V| < n*m the m
  /// "independent" samples heavily overlap, so the hyper-sample maxima are
  /// strongly correlated and the t interval is optimistic.
  void check_source_size(std::optional<std::size_t> population_size,
                         EstimationResult& r) const;

  /// Records an accepted hyper-sample (counter + the "hyper_sample" trace
  /// event with the fit diagnostics; rel_error_bound included once the
  /// stopping rule is live).
  void record_accept(const HyperSampleResult& hs,
                     const EstimationResult& r) const;

  /// Records a hyper-sample that could not be folded in (invalid draw, or
  /// degenerate fit under DegenerateFitPolicy::kDiscardRedraw).
  void record_discard(const HyperSampleResult& hs, EstimationResult& r) const;

  /// Records a deadline/cancellation stop (partial result).
  void record_stop(StopReason reason, EstimationResult& r) const;

  /// Records a draw fault (population raised mpe::Error).
  void record_draw_fault(const Error& e, EstimationResult& r) const;

  /// Records redraw-budget exhaustion (too few usable hyper-samples).
  void record_redraws_exhausted(EstimationResult& r) const;

  /// Counts hyper-samples drawn past the stop index and never folded.
  void note_speculation_wasted(std::size_t count) const;

 private:
  const EstimatorOptions& options_;
  CheckpointSink checkpoint_;
};

}  // namespace mpe::maxpower
