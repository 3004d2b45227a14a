#include "maxpower/run_context.hpp"

#include <utility>

#include "util/atomic_file.hpp"
#include "util/jsonl.hpp"

namespace mpe::maxpower {

namespace detail {

EstimatorMetrics::EstimatorMetrics() {
  auto& reg = util::MetricRegistry::global();
  // The label predates the removal of the sequential path; it is kept so
  // existing dashboards and scrapes keep their series.
  runs = reg.counter("mpe_estimator_runs_total", "path=parallel");
  converged =
      reg.counter("mpe_estimator_converged_runs_total", "path=parallel");
  hyper_accepted = reg.counter("mpe_estimator_hyper_samples_total");
  hyper_discarded = reg.counter("mpe_estimator_hyper_discarded_total");
  units = reg.counter("mpe_estimator_units_total");
  speculation_wasted = reg.counter("mpe_estimator_speculation_wasted_total");
  hyper_per_run = reg.histogram("mpe_estimator_hyper_samples_per_run");
  run_wall_ns = reg.histogram("mpe_estimator_run_wall_ns");
}

EstimatorMetrics& estimator_metrics() {
  static EstimatorMetrics m;
  return m;
}

}  // namespace detail

CheckpointSink::CheckpointSink(const EstimatorOptions& options,
                               std::uint64_t fingerprint,
                               std::uint64_t base_seed)
    : options_(options), enabled_(!options.checkpoint_path.empty()) {
  if (!enabled_) return;
  snapshot_.fingerprint = fingerprint;
  snapshot_.base_seed = base_seed;
  snapshot_.parallel_path = true;
}

bool CheckpointSink::try_resume(EstimationResult& r, std::uint64_t& next_index,
                                Rng::State& rng_state, bool& complete) {
  if (!enabled_ || !util::file_exists(options_.checkpoint_path)) {
    return false;
  }
  RunCheckpoint loaded = load_checkpoint_file(options_.checkpoint_path);
  // A file written by the sequential path of earlier releases (flag bit
  // clear) is outside input that no run here can continue.
  if (loaded.fingerprint != snapshot_.fingerprint || !loaded.parallel_path) {
    throw Error(ErrorCode::kPrecondition,
                "checkpoint was written by a different run configuration; "
                "refusing to resume",
                ErrorContext{}
                    .kv("path", options_.checkpoint_path)
                    .kv("expected_fingerprint", snapshot_.fingerprint)
                    .kv("found_fingerprint", loaded.fingerprint)
                    .str());
  }
  r = std::move(loaded.result);
  next_index = loaded.next_index;
  rng_state = loaded.rng;
  complete = loaded.complete;
  snapshot_.accepted_indices = std::move(loaded.accepted_indices);
  if (options_.tracer != nullptr) {
    options_.tracer->event("run_resumed",
                           util::JsonFields{}
                               .add("hyper_samples", r.hyper_samples)
                               .add("next_index", next_index)
                               .add("complete", complete)
                               .body());
  }
  return true;
}

void CheckpointSink::on_accept(const EstimationResult& r,
                               const Rng::State& rng_state,
                               std::uint64_t next_index,
                               std::uint64_t sample_index, bool complete) {
  if (!enabled_) return;
  snapshot_.accepted_indices.push_back(sample_index);
  snapshot_.result = r;
  snapshot_.rng = rng_state;
  snapshot_.next_index = next_index;
  snapshot_.complete = complete;
  dirty_ = true;
  ++accepts_since_write_;
  const std::size_t every =
      options_.checkpoint_every_k > 0 ? options_.checkpoint_every_k : 1;
  if (complete || accepts_since_write_ >= every) write();
}

void CheckpointSink::flush() {
  if (enabled_ && dirty_) write();
}

void CheckpointSink::write() {
  save_checkpoint_file(options_.checkpoint_path, snapshot_);
  dirty_ = false;
  accepts_since_write_ = 0;
}

RunContext::RunContext(const EstimatorOptions& options,
                       std::uint64_t fingerprint, std::uint64_t base_seed)
    : options_(options), checkpoint_(options, fingerprint, base_seed) {}

void RunContext::check_source_size(std::optional<std::size_t> population_size,
                                   EstimationResult& r) const {
  const std::size_t need = options_.hyper.n * options_.hyper.m;
  if (population_size.has_value() && *population_size < need) {
    r.diagnostics.small_population = true;
    r.diagnostics.note(
        Severity::kWarning, ErrorCode::kBadData,
        "population smaller than one hyper-sample (|V| < n*m); "
        "sample maxima are correlated",
        ErrorContext{}.kv("size", *population_size).kv("n*m", need).str());
  }
}

void RunContext::record_accept(const HyperSampleResult& hs,
                               const EstimationResult& r) const {
  detail::estimator_metrics().hyper_accepted.inc();
  if (options_.tracer != nullptr) {
    util::JsonFields f;
    f.add("k", r.hyper_samples)
        .add("estimate", hs.estimate)
        .add("mu_hat", hs.mu_hat)
        .add("sample_max", hs.sample_max)
        .add("units", hs.units_used)
        .add("mle_converged", hs.mle.converged)
        .add("degenerate", hs.degenerate)
        // Run-report schema v1 field; no estimate comes from PWM any more.
        .add("used_pwm", false)
        .add("constant_sample", hs.constant_sample)
        .add("alpha", hs.mle.params.alpha)
        .add("profile_evals", hs.mle.profile_evaluations);
    if (r.hyper_samples >= options_.min_hyper_samples) {
      f.add("rel_error_bound", r.relative_error_bound);
    }
    options_.tracer->event("hyper_sample", f.body());
  }
}

void RunContext::record_discard(const HyperSampleResult& hs,
                                EstimationResult& r) const {
  detail::estimator_metrics().hyper_discarded.inc();
  ++r.diagnostics.discarded_hyper_samples;
  r.diagnostics.note(
      Severity::kWarning,
      hs.valid ? ErrorCode::kNonConvergence : ErrorCode::kBadData,
      hs.valid ? "degenerate fit discarded (redraw policy)"
               : "hyper-sample invalid: a sample had no finite unit power",
      ErrorContext{}
          .kv("nonfinite_units", hs.nonfinite_units)
          .kv("estimate", hs.estimate)
          .str());
  if (options_.tracer != nullptr) {
    options_.tracer->event("hyper_sample_discarded",
                           util::JsonFields{}
                               .add("valid", hs.valid)
                               .add("degenerate", hs.degenerate)
                               .add("nonfinite_units", hs.nonfinite_units)
                               .add("estimate", hs.estimate)
                               .body());
  }
}

void RunContext::record_stop(StopReason reason, EstimationResult& r) const {
  if (reason == StopReason::kCancelled) {
    r.stop_reason = StopReason::kCancelled;
    r.diagnostics.note(
        Severity::kWarning, ErrorCode::kCancelled,
        "run cancelled; returning partial result",
        ErrorContext{}.kv("hyper_samples", r.hyper_samples).str());
  } else {
    r.stop_reason = StopReason::kDeadlineExceeded;
    r.diagnostics.note(
        Severity::kWarning, ErrorCode::kDeadline,
        "deadline exceeded; returning partial result",
        ErrorContext{}.kv("hyper_samples", r.hyper_samples).str());
  }
  if (options_.tracer != nullptr) {
    options_.tracer->event(
        "run_stop",
        util::JsonFields{}
            .add("cause",
                 reason == StopReason::kCancelled ? "cancelled" : "deadline")
            .add("hyper_samples", r.hyper_samples)
            .body());
  }
}

void RunContext::record_draw_fault(const Error& e, EstimationResult& r) const {
  r.stop_reason = StopReason::kDataFault;
  r.diagnostics.note(Severity::kError, e.code(),
                     "population draw failed: " + e.message(), e.context());
  if (options_.tracer != nullptr) {
    options_.tracer->event("draw_fault",
                           util::JsonFields{}
                               .add("code", to_string(e.code()))
                               .add("message", e.message())
                               .body());
  }
}

void RunContext::record_redraws_exhausted(EstimationResult& r) const {
  r.stop_reason = StopReason::kDataFault;
  r.diagnostics.note(
      Severity::kError, ErrorCode::kBadData,
      "redraw budget exhausted before enough usable hyper-samples",
      ErrorContext{}
          .kv("discarded", r.diagnostics.discarded_hyper_samples)
          .kv("max_redraws", options_.max_redraws)
          .str());
  if (options_.tracer != nullptr) {
    options_.tracer->event(
        "run_stop",
        util::JsonFields{}
            .add("cause", "redraws-exhausted")
            .add("discarded", r.diagnostics.discarded_hyper_samples)
            .body());
  }
}

void RunContext::note_speculation_wasted(std::size_t count) const {
  if (count > 0) detail::estimator_metrics().speculation_wasted.inc(count);
}

}  // namespace mpe::maxpower
