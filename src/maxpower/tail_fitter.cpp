#include "maxpower/tail_fitter.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "evt/gev_mle.hpp"
#include "evt/pwm.hpp"
#include "stats/gev.hpp"
#include "stats/weibull.hpp"

namespace mpe::maxpower {

namespace {

/// GEV analog of finite_population_estimate: the finite-population quantile
/// when the source is finite, else the right endpoint (finite only for
/// Weibull-type xi < 0 fits). Returns NaN/Inf when the fitted law has no
/// usable value at that point — callers must guard.
double gev_law_estimate(const stats::GevParams& params,
                        const TailFitContext& context) {
  const stats::Gev g(params);
  const auto& options = context.options;
  if (options.finite_correction && context.population_size.has_value()) {
    const double q_parent =
        1.0 - 1.0 / static_cast<double>(*context.population_size);
    const double q = options.quantile_mode == FiniteQuantileMode::kExactPower
                         ? std::pow(q_parent,
                                    static_cast<double>(options.n))
                         : q_parent;
    return g.quantile(q);
  }
  return g.right_endpoint();
}

/// Translates a GEV fit into the Weibull diagnostic triple when the shape
/// allows it (xi < 0), so traces and tests see uniform fields across
/// fitters. Gumbel/Frechet-type fits leave the triple defaulted.
void project_to_weibull(const stats::GevParams& params,
                        evt::WeibullMleResult& mle) {
  if (params.xi < 0.0) {
    mle.params = stats::Gev(params).to_weibull();
  }
}

/// The paper's fitter: reversed-Weibull profile MLE with the
/// DegenerateFitPolicy fallbacks. This reproduces the fit stage that used
/// to live inline in draw_hyper_sample, bit for bit — the golden tests pin
/// its output through the engine.
class WeibullMleFitter final : public TailFitter {
 public:
  std::string_view name() const override { return "mle"; }

  TailFitOutcome fit(std::span<const double> maxima,
                     const TailFitContext& context) const override {
    const auto& options = context.options;
    const bool quantile_path =
        options.finite_correction && context.population_size.has_value();
    // Endpoint path: a raw ridge fit would report an unbounded endpoint, so
    // it fits with ridge stabilization when the user's options have none.
    evt::WeibullMleOptions mle = options.mle;
    if (!quantile_path && mle.ridge_tolerance <= 0.0 &&
        options.endpoint_ridge_tolerance > 0.0) {
      mle.ridge_tolerance = options.endpoint_ridge_tolerance;
    }
    TailFitOutcome out;
    out.mle = evt::fit_weibull_mle(maxima, mle);
    out.mu_hat = out.mle.params.mu;
    out.estimate = quantile_path
                       ? finite_population_estimate(out.mle.params,
                                                    *context.population_size,
                                                    options.n,
                                                    options.quantile_mode)
                       : out.mu_hat;
    out.degenerate = !out.mle.converged || out.mle.alpha_below_two;

    if (out.degenerate &&
        options.degenerate_policy == DegenerateFitPolicy::kPwmFallback) {
      const evt::PwmResult pwm = evt::fit_gev_pwm(maxima);
      if (pwm.valid) {
        const double candidate = gev_law_estimate(pwm.params, context);
        if (std::isfinite(candidate)) {
          out.estimate = candidate;
          out.used_pwm = true;
        }
      }
    }
    return out;
  }
};

/// Closed-form probability-weighted-moments fitter: the GEV L-moment fit as
/// the *primary* estimator rather than a fallback. Robust for small m and
/// never iterates, at some efficiency cost versus the MLE.
class PwmFitter final : public TailFitter {
 public:
  std::string_view name() const override { return "pwm"; }

  TailFitOutcome fit(std::span<const double> maxima,
                     const TailFitContext& context) const override {
    TailFitOutcome out;
    out.used_pwm = true;
    const evt::PwmResult pwm = evt::fit_gev_pwm(maxima);
    if (!pwm.valid) {
      out.degenerate = true;
      return out;
    }
    project_to_weibull(pwm.params, out.mle);
    out.mle.converged = true;
    const stats::Gev g(pwm.params);
    const double endpoint = g.right_endpoint();
    out.mu_hat = std::isfinite(endpoint) ? endpoint : out.mle.params.mu;
    out.estimate = gev_law_estimate(pwm.params, context);
    // Frechet/Gumbel-type fits (xi >= 0) have no finite endpoint: on the
    // endpoint path that is a degenerate outcome, not a usable estimate.
    if (!std::isfinite(out.estimate)) out.degenerate = true;
    return out;
  }
};

/// Full GEV maximum likelihood with the shape free in sign. Unlike the
/// Weibull MLE it does not force a bounded tail, so near-Gumbel maxima fit
/// cleanly instead of riding the Weibull->Gumbel likelihood ridge.
class GevMleFitter final : public TailFitter {
 public:
  std::string_view name() const override { return "gev"; }

  TailFitOutcome fit(std::span<const double> maxima,
                     const TailFitContext& context) const override {
    TailFitOutcome out;
    const evt::GevMleResult gev = evt::fit_gev_mle(maxima);
    out.degenerate = !gev.converged;
    project_to_weibull(gev.params, out.mle);
    out.mle.converged = gev.converged;
    out.mle.log_likelihood = gev.log_likelihood;
    const stats::Gev g(gev.params);
    const double endpoint = g.right_endpoint();
    out.mu_hat = std::isfinite(endpoint) ? endpoint : out.mle.params.mu;
    out.estimate = gev_law_estimate(gev.params, context);
    if (!std::isfinite(out.estimate)) out.degenerate = true;
    return out;
  }
};

}  // namespace

std::shared_ptr<const TailFitter> make_tail_fitter(TailFitterKind kind) {
  static const auto mle = std::make_shared<const WeibullMleFitter>();
  static const auto pwm = std::make_shared<const PwmFitter>();
  static const auto gev = std::make_shared<const GevMleFitter>();
  switch (kind) {
    case TailFitterKind::kWeibullMle:
      return mle;
    case TailFitterKind::kPwm:
      return pwm;
    case TailFitterKind::kGevMle:
      return gev;
  }
  return mle;
}

std::optional<TailFitterKind> tail_fitter_kind_from_name(
    std::string_view name) {
  if (name == "mle") return TailFitterKind::kWeibullMle;
  if (name == "pwm") return TailFitterKind::kPwm;
  if (name == "gev") return TailFitterKind::kGevMle;
  return std::nullopt;
}

const TailFitter& default_tail_fitter() {
  static const WeibullMleFitter fitter;
  return fitter;
}

}  // namespace mpe::maxpower
