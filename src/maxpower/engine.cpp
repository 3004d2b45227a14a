#include "maxpower/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
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

/// One drawn hyper-sample with its draw index, as handed from the
/// execution policy to the fold.
struct Slot {
  HyperSampleResult hs;
  std::size_t index = 0;
  bool computed = false;  ///< false = abandoned by a mid-wave fault/stop
};

/// Where the hyper-samples of a run come from, in index order. The policy
/// owns the draw cursor; the engine's single loop owns folding, stopping,
/// checkpointing and the interval RNG. draw_wave() hands over the next wave
/// and moves the cursor past it; it returns false when a draw faulted (the
/// fault is recorded before returning) or nothing is left to hand over, and
/// `slots` then holds the computed prefix.
class ExecutionPolicy {
 public:
  virtual ~ExecutionPolicy() = default;
  /// Next draw index the run would consume (== draw attempts so far).
  virtual std::size_t cursor() const = 0;
  /// Restores the checkpointed position.
  virtual void resume(std::uint64_t next_index) = 0;
  virtual bool draw_wave(UnitSource& source, const TailFitter& fitter,
                         RunContext& ctx, EstimationResult& r,
                         std::vector<Slot>& slots) = 0;
};

/// The live policy: hyper-sample i always draws from the counter-derived
/// stream stream_seed(seed, i); waves of up to `wave` indices are computed
/// speculatively (concurrently when the source allows), so the schedule is
/// unobservable in the result.
class SpeculativeExecution final : public ExecutionPolicy {
 public:
  SpeculativeExecution(std::uint64_t seed, std::size_t wave, bool concurrent,
                       util::ThreadPool* pool, std::size_t max_attempts)
      : seed_(seed),
        wave_(wave),
        concurrent_(concurrent),
        pool_(pool),
        max_attempts_(max_attempts) {}

  std::size_t cursor() const override { return next_index_; }

  void resume(std::uint64_t next_index) override {
    next_index_ = static_cast<std::size_t>(next_index);
  }

  bool draw_wave(UnitSource& source, const TailFitter& fitter,
                 RunContext& ctx, EstimationResult& r,
                 std::vector<Slot>& slots) override {
    const EstimatorOptions& options = ctx.options();
    const std::size_t count = std::min(wave_, max_attempts_ - next_index_);
    batch_.assign(count, HyperSampleResult{});
    // A computed batch entry always has units_used = n*m > 0; entries
    // abandoned by a mid-wave fault or stop keep the zero default, so the
    // fold below can recognize them.
    auto draw_one = [&](std::size_t j) {
      Rng hyper_rng(stream_seed(seed_, next_index_ + j));
      batch_[j] =
          draw_hyper_sample(source, options.hyper, fitter, hyper_rng);
    };
    ctx.note_wave();
    auto wave_span = options.tracer != nullptr
                         ? options.tracer->span("wave")
                         : util::Tracer().span("wave");
    bool draw_faulted = false;
    try {
      if (concurrent_ && count > 1) {
        pool_->parallel_for(0, count, draw_one, &options.control);
      } else {
        for (std::size_t j = 0; j < count; ++j) {
          if (options.control.should_stop() != util::StopCause::kNone) break;
          draw_one(j);
        }
      }
    } catch (const Error& e) {
      // The wave is drained before parallel_for rethrows, so every entry is
      // either fully computed or untouched; the engine folds the computed
      // prefix, then stops.
      ctx.record_draw_fault(e, r);
      draw_faulted = true;
    }
    wave_span.note(util::JsonFields{}
                       .add("wave", wave_number_)
                       .add("first_index", next_index_)
                       .add("count", count)
                       .add("concurrent", concurrent_ && count > 1)
                       .body());
    wave_span.finish();
    ++wave_number_;
    slots.clear();
    slots.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      Slot s;
      s.computed = batch_[j].units_used != 0;
      s.index = next_index_ + j;
      s.hs = std::move(batch_[j]);
      slots.push_back(std::move(s));
    }
    next_index_ += count;
    return !draw_faulted;
  }

 private:
  std::uint64_t seed_;
  std::size_t wave_;
  bool concurrent_;
  util::ThreadPool* pool_;
  std::size_t max_attempts_;
  std::size_t next_index_ = 0;
  std::size_t wave_number_ = 0;
  std::vector<HyperSampleResult> batch_;
};

/// Replays pre-computed hyper-samples (shard results assembled by a
/// coordinator) through the fold: one slot per wave in index order, with
/// the draws themselves replaced by the recorded values. Bit-identical to a
/// live run as long as the recorded prefix covers the stopping point.
class ReplayExecution final : public ExecutionPolicy {
 public:
  explicit ReplayExecution(const std::vector<Engine::ReplaySample>& samples)
      : samples_(samples) {}

  std::size_t cursor() const override { return pos_; }

  void resume(std::uint64_t) override {
    throw Error(ErrorCode::kInternal, "replay runs never resume");
  }

  bool draw_wave(UnitSource&, const TailFitter&, RunContext&,
                 EstimationResult&, std::vector<Slot>& slots) override {
    slots.clear();
    if (pos_ >= samples_.size()) return false;  // recorded prefix exhausted
    Slot s;
    s.index = static_cast<std::size_t>(samples_[pos_].index);
    s.hs = samples_[pos_].hs;
    s.computed = true;
    slots.push_back(std::move(s));
    ++pos_;
    return true;
  }

 private:
  const std::vector<Engine::ReplaySample>& samples_;
  std::size_t pos_ = 0;
};

/// UnitSource stand-in for replay: the fold never draws, so fill() is
/// unreachable.
class ReplaySource final : public UnitSource {
 public:
  void fill(std::span<double>, Rng&) override {
    throw Error(ErrorCode::kInternal, "replay source never draws");
  }
  bool concurrent_fill_safe() const override { return false; }
  std::optional<std::size_t> population_size() const override { return {}; }
  std::string description() const override { return "replay"; }
};

void finalize_chain(
    const std::vector<std::shared_ptr<StoppingRule>>& chain,
    const EstimatorOptions& options, EstimationResult& r, Rng& interval_rng) {
  for (const auto& rule : chain) rule->finalize(options, r, interval_rng);
}

/// The one run loop the live and the replay policy share. The stopping
/// chain's interval randomness comes from its own stream of `seed`
/// (kIntervalStream), so it never depends on how draws are scheduled.
EstimationResult run_loop(UnitSource& source, const TailFitter& fitter,
                          const std::vector<std::shared_ptr<StoppingRule>>&
                              chain,
                          RunContext& ctx, ExecutionPolicy& policy,
                          std::uint64_t seed) {
  const EstimatorOptions& options = ctx.options();
  Rng interval_rng(stream_seed(seed, kIntervalStream));
  EstimationResult r;
  bool resumed = false;
  if (ctx.checkpoint().enabled()) {
    std::uint64_t next_index = 0;
    Rng::State rng_state;
    bool complete = false;
    if (ctx.checkpoint().try_resume(r, next_index, rng_state, complete)) {
      // A complete checkpoint is the final result of a converged run:
      // return it without drawing anything.
      if (complete) return r;
      policy.resume(next_index);
      interval_rng.set_state(rng_state);
      resumed = true;
    }
  }
  // The restored diagnostics already carry the population-size note from
  // the original run start; only a fresh run records it.
  if (!resumed) ctx.check_source_size(source.population_size(), r);

  std::vector<Slot> slots;
  for (;;) {
    std::optional<StopReason> verdict;
    for (const auto& rule : chain) {
      verdict = rule->pre_draw(options, r, policy.cursor());
      if (verdict.has_value()) break;
    }
    if (verdict.has_value()) {
      if (*verdict == StopReason::kCancelled ||
          *verdict == StopReason::kDeadlineExceeded) {
        ctx.record_stop(*verdict, r);
        ctx.checkpoint().flush();
        finalize_chain(chain, options, r, interval_rng);
        return r;
      }
      break;  // budget verdict: fall through to the epilogue below
    }

    const bool wave_ok = policy.draw_wave(source, fitter, ctx, r, slots);

    // Stopping chain strictly in index order: hyper-samples past the
    // convergence point are discarded, so the result cannot depend on the
    // wave size or thread count. Discarded (unusable) hyper-samples simply
    // advance the index stream — the next index *is* the redraw.
    bool done = false;
    for (Slot& s : slots) {
      if (!s.computed) break;  // not computed (fault/stop)
      if (done || r.hyper_samples >= options.max_hyper_samples) {
        // Computed speculatively but never folded: count the waste so the
        // metrics show what the wave size costs.
        ctx.note_speculation_wasted();
        continue;
      }
      r.diagnostics.nonfinite_units += s.hs.nonfinite_units;
      if (!usable(options, s.hs)) {
        ctx.record_discard(s.hs, r);
        continue;
      }
      r.hyper_values.push_back(s.hs.estimate);
      r.units_used += s.hs.units_used;
      ++r.hyper_samples;
      if (!s.hs.mle.converged) ++r.degenerate_fits;
      if (s.hs.degenerate) ++r.diagnostics.degenerate_fits;
      if (s.hs.used_pwm) ++r.diagnostics.pwm_refits;
      if (s.hs.constant_sample) ++r.diagnostics.constant_samples;
      for (const auto& rule : chain) {
        if (rule->post_accept(options, r, interval_rng).has_value()) {
          done = true;
          break;
        }
      }
      ctx.record_accept(s.hs, r);
      // The resume point is the index after this accept; unfolded entries
      // later in the wave are re-drawn on resume from their per-index
      // streams, reproducing the same values.
      ctx.checkpoint().on_accept(r, interval_rng.state(), s.index + 1,
                                 s.index, done);
    }
    if (done) return r;
    if (!wave_ok) {
      ctx.checkpoint().flush();
      finalize_chain(chain, options, r, interval_rng);
      return r;
    }
  }

  // Budget epilogue: the chain ended the run without converging. Too few
  // accepted hyper-samples means the redraw budget was spent on unusable
  // draws — a data fault, not a clean budget stop.
  if (r.hyper_samples < options.max_hyper_samples &&
      r.stop_reason == StopReason::kMaxHyperSamples) {
    ctx.record_redraws_exhausted(r);
  }
  ctx.checkpoint().flush();
  finalize_chain(chain, options, r, interval_rng);
  return r;
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
  // Concurrent speculation needs thread-safe draws; otherwise draw the wave
  // sequentially (identical result, since streams are per-index anyway).
  const bool concurrent = threads > 1 && source.concurrent_fill_safe();

  // A local pool only when actually speculating concurrently and the caller
  // did not provide one.
  std::unique_ptr<util::ThreadPool> local_pool;
  util::ThreadPool* pool = parallel.pool;
  if (concurrent && pool == nullptr) {
    local_pool = std::make_unique<util::ThreadPool>(threads - 1);
    pool = local_pool.get();
  }
  const std::size_t wave = concurrent ? threads : 1;

  RunScope scope(config_.options, source, threads);
  RunContext ctx(config_.options,
                 run_fingerprint(config_.options, seed, source.description(),
                                 strategy_canon(config_)),
                 seed);
  SpeculativeExecution policy(
      seed, wave, concurrent, pool,
      config_.options.max_hyper_samples + config_.options.max_redraws);
  EstimationResult r = run_loop(source, fitter, chain, ctx, policy, seed);
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
  const TailFitter& fitter =
      config_.fitter != nullptr ? *config_.fitter : default_tail_fitter();
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
  ReplaySource source;
  ReplayExecution policy(samples);
  return run_loop(source, fitter, chain, ctx, policy, seed);
}

}  // namespace mpe::maxpower
