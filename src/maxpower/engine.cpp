#include "maxpower/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "maxpower/checkpoint.hpp"
#include "maxpower/run_context.hpp"
#include "maxpower/stopping.hpp"
#include "maxpower/tail_fitter.hpp"
#include "maxpower/unit_source.hpp"
#include "util/contracts.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace mpe::maxpower {

namespace {

void check_options(const EstimatorOptions& options) {
  MPE_EXPECTS(options.epsilon > 0.0 && options.epsilon < 1.0);
  MPE_EXPECTS(options.confidence > 0.0 && options.confidence < 1.0);
  MPE_EXPECTS(options.min_hyper_samples >= 2);
  MPE_EXPECTS(options.max_hyper_samples >= options.min_hyper_samples);
}

/// True when the hyper-sample may be folded into the mean under the active
/// degradation policy. Invalid or non-finite samples are never foldable.
bool usable(const EstimatorOptions& options, const HyperSampleResult& hs) {
  if (!hs.valid || !std::isfinite(hs.estimate)) return false;
  if (hs.degenerate && options.hyper.degenerate_policy ==
                           DegenerateFitPolicy::kDiscardRedraw) {
    return false;
  }
  return true;
}

/// Per-run instrumentation scope: emits the run_config event and the
/// closing "run" span into options.tracer (when set) and folds the run
/// outcome into the global metrics. Pure observer — it reads the result,
/// never writes it.
class RunScope {
 public:
  RunScope(const EstimatorOptions& options, UnitSource& source,
           unsigned threads)
      : options_(options),
        start_(std::chrono::steady_clock::now()),
        span_(options.tracer != nullptr ? options.tracer->span("run")
                                        : util::Tracer().span("run")) {
    if (options_.tracer != nullptr) {
      util::JsonFields f;
      f.add("path", "parallel")
          .add("threads", threads)
          .add("epsilon", options_.epsilon)
          .add("confidence", options_.confidence)
          .add("n", options_.hyper.n)
          .add("m", options_.hyper.m)
          .add("min_hyper_samples", options_.min_hyper_samples)
          .add("max_hyper_samples", options_.max_hyper_samples)
          .add("interval", options_.interval == IntervalKind::kBootstrap
                               ? "bootstrap"
                               : "student-t")
          .add("population", source.description());
      const auto size = source.population_size();
      if (size.has_value()) f.add("population_size", *size);
      options_.tracer->event("run_config", f.body());
    }
  }

  /// Records the finished run. Call exactly once, with the final result.
  void finish(const EstimationResult& r) {
    auto& m = detail::estimator_metrics();
    m.runs.inc();
    if (r.converged) m.converged.inc();
    m.units.inc(r.units_used);
    m.hyper_per_run.observe(r.hyper_samples);
    if (util::MetricRegistry::global().enabled()) {
      const auto wall = std::chrono::steady_clock::now() - start_;
      m.run_wall_ns.observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
              .count()));
    }
    if (options_.tracer != nullptr) {
      span_.note(util::JsonFields{}
                     .add("stop_reason", to_string(r.stop_reason))
                     .add("converged", r.converged)
                     .add("estimate", r.estimate)
                     .add("rel_error_bound", r.relative_error_bound)
                     .add("hyper_samples", r.hyper_samples)
                     .add("units_used", r.units_used)
                     .add("degenerate_fits", r.diagnostics.degenerate_fits)
                     .add("discarded",
                          r.diagnostics.discarded_hyper_samples)
                     .body());
      span_.finish();
    }
  }

 private:
  const EstimatorOptions& options_;
  std::chrono::steady_clock::time_point start_;
  util::Tracer::Span span_;
};

/// RNG stream index reserved for the convergence-interval randomness (the
/// bootstrap resampler); hyper-sample i uses stream i, which can never
/// reach this one within the max_hyper_samples budget.
constexpr std::uint64_t kIntervalStream = ~std::uint64_t{0} - 1;

using Chain = std::vector<std::shared_ptr<StoppingRule>>;

/// Computes hyper-sample `index` into `out`. Returns false when there is
/// nothing to fold at that index: run control stopped the run, or a
/// replay's recorded prefix ran out. A throw is a draw fault, folded (and
/// recorded) at its index like any other outcome.
using DrawFn = std::function<bool(std::size_t index, HyperSampleResult& out)>;

/// Waits of a participant that has nothing to claim are short (the next
/// fold frees a claim), so it spins this many pauses before it sleeps.
constexpr int kSpinLimit = 1024;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Blocks until `a` no longer holds `seen`: a bounded spin, then a futex
/// wait. Every store to the waited-on atomics is followed by notify_all.
void await_change(const std::atomic<std::uint32_t>& a, std::uint32_t seen) {
  for (int spin = 0; spin < kSpinLimit; ++spin) {
    if (a.load(std::memory_order_acquire) != seen) return;
    cpu_relax();
  }
  a.wait(seen, std::memory_order_acquire);
}

/// The run loop of one estimate: the paper's Figure-4 procedure. Every
/// participant — the caller plus participants-1 pool helpers, dispatched
/// once per run — repeats three steps:
///   1. claim the next index, if it is below cursor + participants;
///   2. draw that hyper-sample into its ring cell;
///   3. under the fold lock, fold every ready cell at the fold cursor,
///      strictly in index order: pre-draw rules, discard or accept,
///      post-accept rules, checkpoint.
/// The participant whose fold ends the run wakes the others; the caller
/// returns once every helper that entered the run has left it. The fold
/// order and the per-index streams are those of a one-participant run, so
/// the result never depends on the schedule. Replay is the same loop with
/// one participant whose draw returns the recorded sample.
///
/// Owned through a shared_ptr that every helper task holds: a helper that
/// starts after its run ended touches only the atomics of this object,
/// never the caller's source, chain or context.
class Pipeline {
 public:
  Pipeline(const DrawFn& draw, const Chain& chain, RunContext& ctx,
           std::uint64_t seed, unsigned participants)
      : draw_(draw),
        chain_(chain),
        ctx_(ctx),
        options_(ctx.options()),
        window_(participants),
        max_attempts_(options_.max_hyper_samples + options_.max_redraws),
        cells_(std::make_unique<Cell[]>(participants)),
        interval_rng_(stream_seed(seed, kIntervalStream)) {}

  /// Resumes from a checkpoint and consults the pre-draw rules for the
  /// first index; the run may end right here (a complete checkpoint, or a
  /// rule that stops it before any draw).
  void start(std::optional<std::size_t> population_size) {
    bool resumed = false;
    if (ctx_.checkpoint().enabled()) {
      std::uint64_t next_index = 0;
      Rng::State rng_state;
      bool complete = false;
      if (ctx_.checkpoint().try_resume(r_, next_index, rng_state,
                                       complete)) {
        // A complete checkpoint is the final result of a converged run:
        // return it without drawing anything.
        if (complete) return end();
        next_.store(static_cast<std::size_t>(next_index));
        cursor_.store(static_cast<std::size_t>(next_index));
        interval_rng_.set_state(rng_state);
        resumed = true;
      }
    }
    // The restored diagnostics already carry the population-size note from
    // the original run start; only a fresh run records it.
    if (!resumed) ctx_.check_source_size(population_size, r_);
    fold();
  }

  bool finished() const { return finished_.load(); }

  /// The body of one pool helper.
  void help() {
    helpers_.fetch_add(1);
    if (!finished_.load()) participate();
    helpers_.fetch_sub(1);
    helpers_.notify_all();
  }

  /// Claims, draws and folds until nothing is left to claim.
  void participate() {
    while (const std::optional<std::size_t> index = claim()) {
      Cell& cell = cells_[*index % window_];
      try {
        cell.drawn = draw_(*index, cell.hs);
      } catch (...) {
        cell.fault = std::current_exception();
      }
      if (cell.drawn) drawn_.fetch_add(1, std::memory_order_relaxed);
      cell.ready.store(true, std::memory_order_release);
      fold();
    }
  }

  /// Waits for the end of the run and for every helper inside it, then
  /// hands over the result (or rethrows what ended the run).
  EstimationResult finish() {
    for (;;) {
      const std::uint32_t seen = progress_.load(std::memory_order_acquire);
      if (finished_.load()) break;
      await_change(progress_, seen);
    }
    for (;;) {
      const std::uint32_t inside = helpers_.load();
      if (inside == 0) break;
      await_change(helpers_, inside);
    }
    // Drawn but never folded: what speculating past the stop index cost.
    ctx_.note_speculation_wasted(drawn_.load(std::memory_order_relaxed) -
                                 folded_);
    if (error_) std::rethrow_exception(error_);
    return std::move(r_);
  }

 private:
  /// One ring slot: index i lives in cell i % participants until folded.
  struct Cell {
    HyperSampleResult hs;
    std::exception_ptr fault;  ///< the draw threw
    bool drawn = false;        ///< hs holds the draw of this index
    std::atomic<bool> ready{false};
  };

  /// The next index to draw, or nullopt once the run ended or every
  /// index of the attempt budget is claimed. Waits while the claim would
  /// run `participants` or more indices ahead of the fold cursor.
  std::optional<std::size_t> claim() {
    std::size_t index = next_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t seen = progress_.load(std::memory_order_acquire);
      if (finished_.load(std::memory_order_acquire) ||
          index >= max_attempts_) {
        return std::nullopt;
      }
      if (index >= cursor_.load(std::memory_order_acquire) + window_) {
        await_change(progress_, seen);
        index = next_.load(std::memory_order_relaxed);
        continue;
      }
      if (next_.compare_exchange_weak(index, index + 1,
                                      std::memory_order_relaxed)) {
        return index;
      }
    }
  }

  /// Folds every ready cell at the cursor. Whatever a fold step throws
  /// (a checkpoint write, a stopping rule) ends the run and is rethrown
  /// by the caller in finish().
  void fold() {
    std::lock_guard<std::mutex> lock(fold_mutex_);
    if (finished_.load(std::memory_order_relaxed)) return;
    try {
      for (;;) {
        const std::size_t index = cursor_.load(std::memory_order_relaxed);
        if (!checked_) {
          // The pre-draw rules see each index once, before it is folded
          // and with everything below it folded, as a one-participant
          // run would show them.
          checked_ = true;
          if (stops_before(index)) return end();
        }
        Cell& cell = cells_[index % window_];
        if (!cell.ready.load(std::memory_order_acquire)) return;
        const bool ended = fold_cell(index, cell);
        cell.fault = nullptr;
        cell.drawn = false;
        cell.ready.store(false, std::memory_order_relaxed);
        if (ended) return end();
        checked_ = false;
        cursor_.store(index + 1, std::memory_order_release);
        progress_.fetch_add(1, std::memory_order_release);
        progress_.notify_all();
      }
    } catch (...) {
      error_ = std::current_exception();
      end();
    }
  }

  void end() {
    finished_.store(true);
    progress_.fetch_add(1, std::memory_order_release);
    progress_.notify_all();
  }

  /// The pre-draw rules for `index`, then the engine's own budget cap.
  /// Returns true when the run ended before drawing `index`.
  bool stops_before(std::size_t index) {
    std::optional<StopReason> verdict;
    for (const auto& rule : chain_) {
      verdict = rule->pre_draw(options_, r_, index);
      if (verdict.has_value()) break;
    }
    if (verdict == StopReason::kCancelled ||
        verdict == StopReason::kDeadlineExceeded) {
      ctx_.record_stop(*verdict, r_);
      stop();
      return true;
    }
    if (!verdict.has_value() && index < max_attempts_ &&
        r_.hyper_samples < options_.max_hyper_samples) {
      return false;
    }
    // Budget epilogue: the chain ended the run without converging. Too few
    // accepted hyper-samples means the redraw budget was spent on unusable
    // draws — a data fault, not a clean budget stop.
    if (r_.hyper_samples < options_.max_hyper_samples &&
        r_.stop_reason == StopReason::kMaxHyperSamples) {
      ctx_.record_redraws_exhausted(r_);
    }
    stop();
    return true;
  }

  /// Folds the outcome of `index`; returns true when it ended the run.
  /// Discarded (unusable) hyper-samples simply advance the index stream —
  /// the next index *is* the redraw.
  bool fold_cell(std::size_t index, Cell& cell) {
    if (cell.fault) {
      // Recorded only here, at its index: a fault past the stop index
      // leaves no trace, whatever the schedule drew first. Anything but
      // mpe::Error propagates to the caller.
      try {
        std::rethrow_exception(cell.fault);
      } catch (const Error& e) {
        ctx_.record_draw_fault(e, r_);
      }
      stop();
      return true;
    }
    if (!cell.drawn) {
      switch (options_.control.should_stop()) {
        case util::StopCause::kCancelled:
          ctx_.record_stop(StopReason::kCancelled, r_);
          break;
        case util::StopCause::kDeadline:
          ctx_.record_stop(StopReason::kDeadlineExceeded, r_);
          break;
        case util::StopCause::kNone:  // replay: recorded prefix exhausted
          break;
      }
      stop();
      return true;
    }
    ++folded_;
    const HyperSampleResult& hs = cell.hs;
    r_.diagnostics.nonfinite_units += hs.nonfinite_units;
    if (!usable(options_, hs)) {
      ctx_.record_discard(hs, r_);
      return false;
    }
    r_.hyper_values.push_back(hs.estimate);
    r_.units_used += hs.units_used;
    ++r_.hyper_samples;
    if (!hs.mle.converged) ++r_.degenerate_fits;
    if (hs.degenerate) ++r_.diagnostics.degenerate_fits;
    if (hs.constant_sample) ++r_.diagnostics.constant_samples;
    bool done = false;
    for (const auto& rule : chain_) {
      if (rule->post_accept(options_, r_, interval_rng_).has_value()) {
        done = true;
        break;
      }
    }
    ctx_.record_accept(hs, r_);
    // The resume point is the index after this accept; indices drawn past
    // it are re-drawn on resume from their per-index streams, reproducing
    // the same values.
    ctx_.checkpoint().on_accept(r_, interval_rng_.state(), index + 1, index,
                                done);
    return done;
  }

  /// Ends a run that did not converge: persists the latest state and lets
  /// the rules leave their final assessment in the partial result.
  void stop() {
    ctx_.checkpoint().flush();
    for (const auto& rule : chain_) {
      rule->finalize(options_, r_, interval_rng_);
    }
  }

  const DrawFn& draw_;
  const Chain& chain_;
  RunContext& ctx_;
  const EstimatorOptions& options_;
  const std::size_t window_;        ///< participants: the claim bound
  const std::size_t max_attempts_;  ///< hyper-sample + redraw budget
  std::unique_ptr<Cell[]> cells_;   ///< window_ cells

  std::atomic<std::size_t> next_{0};    ///< next unclaimed index
  std::atomic<std::size_t> cursor_{0};  ///< next index to fold
  std::atomic<bool> finished_{false};
  /// Bumped after every cursor advance and at the end of the run: what
  /// idle participants wait on.
  std::atomic<std::uint32_t> progress_{0};
  std::atomic<std::uint32_t> helpers_{0};  ///< helpers inside the run
  std::atomic<std::size_t> drawn_{0};      ///< hyper-samples drawn

  // Fold state, touched only under fold_mutex_.
  std::mutex fold_mutex_;
  EstimationResult r_;
  Rng interval_rng_;
  bool checked_ = false;    ///< pre-draw rules consulted for cursor_
  std::size_t folded_ = 0;  ///< drawn hyper-samples folded
  std::exception_ptr error_;
};

/// Runs one estimate on `participants` participants; the pool hosts the
/// participants - 1 helpers (unused when participants == 1).
EstimationResult run_loop(const DrawFn& draw,
                          std::optional<std::size_t> population_size,
                          const Chain& chain, RunContext& ctx,
                          std::uint64_t seed, unsigned participants,
                          util::ThreadPool* pool) {
  auto loop =
      std::make_shared<Pipeline>(draw, chain, ctx, seed, participants);
  loop->start(population_size);
  if (!loop->finished()) {
    for (unsigned h = 1; h < participants; ++h) {
      pool->post([loop] { loop->help(); });
    }
    loop->participate();
  }
  return loop->finish();
}

/// Canonical description of a non-default strategy composition, folded into
/// the checkpoint fingerprint. Empty for the default composition, so
/// default-path fingerprints (and thus pre-engine checkpoints) are
/// unchanged.
std::string strategy_canon(const EngineConfig& config) {
  if (config.fitter == nullptr && config.stopping.empty()) return {};
  std::string canon = "fitter=";
  canon += config.fitter != nullptr ? config.fitter->name()
                                    : default_tail_fitter().name();
  canon += ";stop=";
  bool first = true;
  for (const auto& rule : config.stopping) {
    if (!first) canon += ',';
    canon += rule->name();
    first = false;
  }
  if (config.stopping.empty()) canon += "default";
  return canon;
}

}  // namespace

EstimationResult Engine::run(UnitSource& source, std::uint64_t seed,
                             const ParallelOptions& parallel) const {
  check_options(config_.options);
  const EstimatorOptions& options = config_.options;
  const TailFitter& fitter =
      config_.fitter != nullptr ? *config_.fitter : default_tail_fitter();
  const auto chain =
      config_.stopping.empty() ? default_stopping_chain() : config_.stopping;

  unsigned threads = parallel.threads;
  if (parallel.pool != nullptr) {
    threads = parallel.pool->participants();
  } else if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Concurrent participants need thread-safe draws; otherwise the caller
  // draws alone (identical result, since streams are per-index anyway).
  const unsigned participants =
      threads > 1 && source.concurrent_fill_safe() ? threads : 1;

  // A local pool only when there are helpers to host and the caller did
  // not provide one.
  std::unique_ptr<util::ThreadPool> local_pool;
  util::ThreadPool* pool = parallel.pool;
  if (participants > 1 && pool == nullptr) {
    local_pool = std::make_unique<util::ThreadPool>(participants - 1);
    pool = local_pool.get();
  }

  RunScope scope(options, source, threads);
  RunContext ctx(options,
                 run_fingerprint(options, seed, source.description(),
                                 strategy_canon(config_)),
                 seed);
  const DrawFn draw = [&](std::size_t index, HyperSampleResult& out) {
    if (options.control.should_stop() != util::StopCause::kNone) {
      return false;
    }
    Rng hyper_rng(stream_seed(seed, index));
    out = draw_hyper_sample(source, options.hyper, fitter, hyper_rng);
    return true;
  };
  EstimationResult r = run_loop(draw, source.population_size(), chain, ctx,
                                seed, participants, pool);
  scope.finish(r);
  return r;
}

EstimationResult Engine::run(vec::Population& population, std::uint64_t seed,
                             const ParallelOptions& parallel) const {
  PopulationUnitSource source(population);
  return run(source, seed, parallel);
}

EstimationResult Engine::replay(
    std::uint64_t seed, const std::vector<ReplaySample>& samples) const {
  check_options(config_.options);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].index != i) {
      throw Error(ErrorCode::kPrecondition,
                  "replay samples must be the contiguous index prefix 0..k",
                  ErrorContext{}
                      .kv("position", i)
                      .kv("index", samples[i].index)
                      .str());
    }
  }
  const auto chain =
      config_.stopping.empty() ? default_stopping_chain() : config_.stopping;
  // Replay is a pure fold: no checkpoint, no tracer, and an inert run
  // control, so a coordinator-side stop request can never truncate the
  // deterministic result mid-assembly.
  EstimatorOptions options = config_.options;
  options.checkpoint_path.clear();
  options.tracer = nullptr;
  options.control = util::RunControl{};
  RunContext ctx(options, /*fingerprint=*/0, seed);
  const DrawFn draw = [&samples](std::size_t index, HyperSampleResult& out) {
    if (index >= samples.size()) return false;  // recorded prefix exhausted
    out = samples[index].hs;
    return true;
  };
  return run_loop(draw, std::nullopt, chain, ctx, seed, 1, nullptr);
}

}  // namespace mpe::maxpower
