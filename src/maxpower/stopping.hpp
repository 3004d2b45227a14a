// StoppingRule — the engine's termination layer. The paper stops when the
// Student-t interval over the hyper-sample mean is narrower than epsilon
// (Theorem 6); production runs additionally stop on hyper-sample budgets,
// wall-clock deadlines, and cancellation. Each of those is one rule here,
// and the engine runs a *chain* of them, so policies compose instead of
// being hand-woven into the run loop.
//
// A rule is consulted at two points:
//   * pre_draw  — before each index is folded, once per index, with every
//     lower index folded. Returning a StopReason ends the run: kCancelled / kDeadlineExceeded
//     become a recorded partial-result stop; any other reason exits to the
//     engine's budget epilogue (which decides between kMaxHyperSamples and
//     redraws-exhausted kDataFault).
//   * post_accept — after each hyper-sample is folded into the result, in
//     index order. This is where convergence rules live: compute the
//     interval, set result fields, and return kConverged to finish. A rule
//     that stops here is responsible for setting `r.stop_reason` itself.
// plus a `finalize` pass on every non-converged exit so partial results
// still carry the latest interval.
//
// The engine invokes rules only from its fold, which runs under one lock on
// whichever participant thread completes the next index — strictly in
// index order even when draws are concurrent — so rules may keep per-run
// state without locking; but a rule instance must not be shared across
// simultaneously running engines unless it is stateless.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "maxpower/estimator.hpp"

namespace mpe::maxpower {

/// Strategy interface for one termination policy. All hooks default to
/// "no opinion" so a rule overrides only the points it cares about.
class StoppingRule {
 public:
  virtual ~StoppingRule() = default;

  /// Stable identifier ("budget", "control", "t", "bootstrap", ...): CLI
  /// flag values and checkpoint fingerprints.
  virtual std::string_view name() const = 0;

  /// Consulted once per index, before it is folded. `cursor` is that index
  /// (== draw attempts folded so far).
  virtual std::optional<StopReason> pre_draw(const EstimatorOptions& options,
                                             const EstimationResult& r,
                                             std::size_t cursor) {
    (void)options;
    (void)r;
    (void)cursor;
    return std::nullopt;
  }

  /// Consulted after each accepted hyper-sample, in index order.
  /// `interval_rng` is the run's interval randomness (its dedicated
  /// stream, apart from every hyper-sample's) — consume it only for
  /// stochastic stopping decisions (e.g. bootstrap resampling).
  virtual std::optional<StopReason> post_accept(
      const EstimatorOptions& options, EstimationResult& r,
      Rng& interval_rng) {
    (void)options;
    (void)r;
    (void)interval_rng;
    return std::nullopt;
  }

  /// Called once on every non-converged exit (budget, deadline, cancel,
  /// fault), after the stop is recorded, so the rule can leave its best
  /// final assessment in the partial result.
  virtual void finalize(const EstimatorOptions& options, EstimationResult& r,
                        Rng& interval_rng) {
    (void)options;
    (void)r;
    (void)interval_rng;
  }
};

/// Budget rule: ends the run when max_hyper_samples hyper-samples are
/// accepted, or when the draw budget (max_hyper_samples + max_redraws
/// attempts) is exhausted replacing discarded samples. Always first in the
/// default chain — the budget is checked before the control brakes, exactly
/// as the legacy loop ordered its `while` condition before the stop poll.
class HyperBudgetRule final : public StoppingRule {
 public:
  std::string_view name() const override { return "budget"; }
  std::optional<StopReason> pre_draw(const EstimatorOptions& options,
                                     const EstimationResult& r,
                                     std::size_t cursor) override;
};

/// Deadline / cancellation rule: polls EstimatorOptions::control and maps
/// StopCause::kCancelled / kDeadline onto the matching StopReason.
class RunControlRule final : public StoppingRule {
 public:
  std::string_view name() const override { return "control"; }
  std::optional<StopReason> pre_draw(const EstimatorOptions& options,
                                     const EstimationResult& r,
                                     std::size_t cursor) override;
};

/// The paper's convergence rule: once min_hyper_samples values exist,
/// compute the confidence interval over the hyper-sample mean and stop when
/// its relative half-width is within epsilon. The interval family is the
/// Student-t interval (Theorem 6) or the percentile bootstrap, taken from
/// EstimatorOptions::interval unless overridden at construction. Also owns
/// `finalize`: partial results report the latest interval.
class IntervalRule final : public StoppingRule {
 public:
  /// `kind`: nullopt follows EstimatorOptions::interval (the default chain);
  /// a value pins the interval family regardless of options.
  explicit IntervalRule(std::optional<IntervalKind> kind = std::nullopt)
      : kind_(kind) {}

  std::string_view name() const override;
  std::optional<StopReason> post_accept(const EstimatorOptions& options,
                                        EstimationResult& r,
                                        Rng& interval_rng) override;
  void finalize(const EstimatorOptions& options, EstimationResult& r,
                Rng& interval_rng) override;

 private:
  IntervalKind kind_of(const EstimatorOptions& options) const;
  std::optional<IntervalKind> kind_;
};

/// The chain estimate_max_power runs: HyperBudgetRule, RunControlRule,
/// IntervalRule(options.interval) — in that order.
std::vector<std::shared_ptr<StoppingRule>> default_stopping_chain();

/// Parses a CLI name for the convergence rule ("t" | "bootstrap").
std::optional<IntervalKind> interval_kind_from_name(std::string_view name);

}  // namespace mpe::maxpower
