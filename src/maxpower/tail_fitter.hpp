// TailFitter — the engine's fit layer. The paper fits the m sample maxima
// with the reversed-Weibull MLE; Hansen's review of the three extreme-value
// families (arXiv:2009.03711) is the reminder that this choice is a
// *strategy*, not a constant: PWM/L-moments and full GEV likelihood are
// equally valid tail fits with different robustness trade-offs. This
// interface makes the fit swappable — one hyper-sample pipeline, any tail
// law — and absorbs the degenerate-fit fallback branching that used to be
// woven inline into draw_hyper_sample.
//
// A fitter sees only the block maxima plus a small context (population
// size, the HyperSampleOptions); everything upstream (drawing, maxima
// formation, constant-sample short-circuit) and downstream (observed-max
// clamp, non-finite guard) is shared pipeline, identical for every fitter.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "evt/weibull_mle.hpp"
#include "maxpower/hyper_sample.hpp"

namespace mpe::maxpower {

/// Everything a fitter may condition on besides the maxima themselves.
struct TailFitContext {
  const HyperSampleOptions& options;
  /// |V| when the unit source is finite; drives the finite-population
  /// quantile correction (Section 3.4).
  std::optional<std::size_t> population_size;
};

/// One fitted tail, reduced to the fields the estimation loop folds in.
struct TailFitOutcome {
  double estimate = 0.0;  ///< the max-power estimate for this hyper-sample
  double mu_hat = 0.0;    ///< raw endpoint estimate (no finite correction)
  /// Weibull-MLE diagnostics when the fitter ran one (the paper path);
  /// non-MLE fitters translate their fit into this triple when possible so
  /// tracing and tests stay uniform.
  evt::WeibullMleResult mle;
  bool degenerate = false;  ///< fit violates the fitter's quality conditions
  bool used_pwm = false;    ///< estimate came from a PWM(-family) fit
};

/// Strategy interface: fit a tail law to the m sample maxima and report one
/// maximum estimate. Implementations must be stateless across calls (the
/// engine's participants invoke them concurrently) and must never
/// throw on hard data — flag `degenerate` instead.
class TailFitter {
 public:
  virtual ~TailFitter() = default;

  /// Stable identifier ("mle", "pwm", "gev", ...): CLI flag values,
  /// checkpoint fingerprints, trace events.
  virtual std::string_view name() const = 0;

  /// Fits `maxima` (m >= 3, at least two distinct values — degenerate
  /// shapes are short-circuited upstream).
  virtual TailFitOutcome fit(std::span<const double> maxima,
                             const TailFitContext& context) const = 0;
};

/// Built-in fitters.
enum class TailFitterKind {
  kWeibullMle,  ///< the paper's reversed-Weibull profile MLE (default);
                ///< honors HyperSampleOptions::degenerate_policy
  kPwm,         ///< closed-form GEV via probability-weighted moments
  kGevMle,      ///< full GEV maximum likelihood (evt/gev_mle), xi free
};

/// Shared singleton for a built-in fitter (fitters are stateless).
std::shared_ptr<const TailFitter> make_tail_fitter(TailFitterKind kind);

/// Parses a CLI name ("mle" | "pwm" | "gev"). Nullopt on unknown names.
std::optional<TailFitterKind> tail_fitter_kind_from_name(
    std::string_view name);

/// The paper-default fitter (kWeibullMle); what estimate_max_power and a
/// null EngineConfig::fitter resolve to.
const TailFitter& default_tail_fitter();

}  // namespace mpe::maxpower
