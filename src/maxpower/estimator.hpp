// The paper's primary contribution: the iterative maximum-power estimation
// procedure (Figure 4). Hyper-samples are drawn until the Student-t
// confidence interval over their mean is narrower than the user's relative
// error bound epsilon at confidence level l — the first method able to
// estimate maximum power to *any* user-specified error and confidence.
//
// One entry point, estimate_max_power(pop, options, seed, parallel):
// hyper-sample i always draws from the counter-derived stream
// stream_seed(seed, i), so the hyper-samples are independent, as the
// paper's loop and its Student-t interval require. Up to `threads`
// participants draw hyper-samples concurrently (when the population allows
// it) and the stopping rule is applied in index order. The result is a
// function of the seed alone, bit-identical for every thread count — block
// maxima over i.i.d. draws are order-insensitive, and the per-index streams
// make the schedule unobservable — with wasted speculation bounded by
// `threads` - 1 hyper-samples past the stop index.
#pragma once

#include <cstdint>
#include <vector>

#include "evt/confidence.hpp"
#include "maxpower/hyper_sample.hpp"
#include "util/deadline.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "vectors/population.hpp"

namespace mpe::maxpower {

/// How the convergence interval over hyper-samples is formed.
enum class IntervalKind {
  kStudentT,   ///< the paper's Theorem-6 t interval (assumes normality)
  kBootstrap,  ///< percentile bootstrap (robust to hyper-sample skew)
};

/// Full estimator configuration. Defaults reproduce the paper's setup:
/// n = 30, m = 10, epsilon = 5%, confidence = 90%.
struct EstimatorOptions {
  HyperSampleOptions hyper;
  IntervalKind interval = IntervalKind::kStudentT;
  double epsilon = 0.05;      ///< required relative error bound
  double confidence = 0.90;   ///< required confidence level l
  /// Hyper-samples required before the stopping rule may fire. The paper
  /// allows k = 2 (its Table 1 reports 600-unit minima), but a two-sample
  /// variance estimate is so noisy that lucky early stops produce the worst
  /// errors; k >= 3 removes most of them for ~4% more units on average.
  /// Set to 2 for strict paper behavior.
  std::size_t min_hyper_samples = 3;
  std::size_t max_hyper_samples = 500; ///< hard stop against non-convergence
  /// Extra draw budget for discarded hyper-samples (invalid draws, or
  /// degenerate fits under DegenerateFitPolicy::kDiscardRedraw). When the
  /// budget runs out before max_hyper_samples accepted hyper-samples exist,
  /// the run stops with StopReason::kDataFault rather than looping forever
  /// against a population that cannot produce usable samples.
  std::size_t max_redraws = 16;
  /// Deadline / cancellation brakes, polled before each index is drawn and
  /// before each is folded. Inert by default; runs stopped early report partial
  /// results with StopReason::kDeadlineExceeded or kCancelled.
  util::RunControl control;
  /// Observability hook (non-owning, may be null): when set, the estimator
  /// emits structured run events — a run_config event, one event per
  /// accepted/discarded hyper-sample carrying its fit diagnostics, and a
  /// closing "run" span with wall/CPU
  /// time. Tracing never perturbs results: goldens are bit-identical with
  /// it on or off (see test_run_report). Serialize with
  /// maxpower::write_run_report (docs/OBSERVABILITY.md documents the
  /// schema). The tracer must outlive the call.
  util::Tracer* tracer = nullptr;
  /// Durable run state (docs/ROBUSTNESS.md, "Durability & resume"). When
  /// non-empty, the estimator checkpoints the run to this path after
  /// accepted hyper-samples via the atomic tmp+fsync+rename pattern, and on
  /// entry resumes from an existing checkpoint instead of re-simulating the
  /// completed prefix: the resumed run's EstimationResult is bit-identical
  /// to an uninterrupted run at any thread count. A checkpoint written by a
  /// different configuration (fingerprint mismatch) raises
  /// mpe::Error(kPrecondition); a corrupt one raises kCorruptData — never a
  /// silently wrong resume. Budget fields (max_hyper_samples, RunControl)
  /// are outside the fingerprint, so a stopped run can be resumed with a
  /// bigger budget. Empty (the default) disables checkpointing entirely.
  std::string checkpoint_path;
  /// Accepted hyper-samples between checkpoint writes. 1 (the default)
  /// persists every accept — maximal durability, and still negligible next
  /// to the n*m simulations behind each hyper-sample. Larger values trade
  /// re-simulated work after a crash for fewer writes. The final state
  /// (converged, or the last accept before a stop) is always flushed.
  std::size_t checkpoint_every_k = 1;
};

/// Why an estimation run ended.
enum class StopReason {
  kConverged,         ///< met epsilon at the required confidence
  kMaxHyperSamples,   ///< exhausted max_hyper_samples without converging
  kDeadlineExceeded,  ///< wall-clock budget ran out (partial result)
  kCancelled,         ///< cancellation requested (partial result)
  kDataFault,         ///< population faults exhausted the redraw budget or a
                      ///< draw threw mpe::Error (partial result)
};

std::string_view to_string(StopReason reason);

/// Per-run health summary accumulated by the estimator. All counters refer
/// to this run only; `records` holds at most kMaxRecords structured
/// diagnostics (earliest first), so a pathological run cannot balloon it.
struct RunDiagnostics {
  std::size_t degenerate_fits = 0;   ///< accepted fits violating Smith's
                                     ///< conditions (non-converged or
                                     ///< alpha <= 2)
  std::size_t constant_samples = 0;  ///< accepted all-equal-maxima samples
  std::size_t discarded_hyper_samples = 0;  ///< drawn but not folded in
  std::size_t nonfinite_units = 0;   ///< NaN/Inf unit powers seen (all draws)
  bool small_population = false;     ///< |V| < n*m: samples overlap heavily
  std::vector<Diagnostic> records;

  static constexpr std::size_t kMaxRecords = 32;
  /// Appends a structured record, dropping it silently once the cap is hit.
  void note(Severity severity, ErrorCode code, std::string message,
            std::string context = "");

  /// Machine-readable serialization: one JSON object with the counters,
  /// flags, and the structured records array. Stable field names (they are
  /// part of the run-report schema); round-trips through
  /// run_diagnostics_from_json (maxpower/run_report.hpp).
  std::string to_json() const;
};

/// Result of one full estimation run.
struct EstimationResult {
  double estimate = 0.0;   ///< P-bar_MAX: mean of the hyper-samples
  evt::ConfidenceInterval ci;  ///< final Student-t interval
  double relative_error_bound = 0.0;  ///< attained half-width / estimate
  std::size_t units_used = 0;         ///< total simulated vector pairs
  std::size_t hyper_samples = 0;      ///< k at termination
  bool converged = false;             ///< met epsilon within max_hyper_samples
  std::vector<double> hyper_values;   ///< the individual P-hat_{i,MAX}
  std::size_t degenerate_fits = 0;    ///< MLE fits flagged non-converged
  StopReason stop_reason = StopReason::kMaxHyperSamples;  ///< why it ended
  RunDiagnostics diagnostics;         ///< per-run health summary
};

/// How an estimate is computed: concurrency only, never the result.
struct ParallelOptions {
  /// Total concurrency (caller included). 1 = run inline without a pool
  /// (the default); 0 = std::thread::hardware_concurrency(). Only changes
  /// wall-clock time, never the result.
  unsigned threads = 1;
  /// Optional externally owned pool; overrides `threads` with
  /// pool->participants() and skips per-call pool construction. The pool
  /// must outlive the call.
  util::ThreadPool* pool = nullptr;
};

/// Runs the iterative procedure (the paper's Figure 4) against a
/// population: hyper-sample i is drawn from the counter-derived stream
/// stream_seed(seed, i) and up to `threads` hyper-samples are drawn
/// concurrently, with the stopping rule applied in index order.
/// Bit-identical for any thread count (including 1). Concurrent draws
/// require population.concurrent_draw_safe(); otherwise the caller draws
/// every hyper-sample itself (same result, no draw-side speedup).
/// Hyper-samples drawn past the stop index are not reported in units_used.
EstimationResult estimate_max_power(vec::Population& population,
                                    const EstimatorOptions& options,
                                    std::uint64_t seed,
                                    const ParallelOptions& parallel = {});

}  // namespace mpe::maxpower
