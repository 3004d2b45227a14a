#include "maxpower/tail_fitter.hpp"

namespace mpe::maxpower {

namespace {

/// The paper's fitter: reversed-Weibull profile MLE. This reproduces the
/// fit stage that used to live inline in draw_hyper_sample, bit for bit —
/// the golden tests pin its output through the engine.
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
                                                    *context.population_size)
                       : out.mu_hat;
    out.degenerate = !out.mle.converged || out.mle.alpha_below_two;
    return out;
  }
};

}  // namespace

const TailFitter& default_tail_fitter() {
  static const WeibullMleFitter fitter;
  return fitter;
}

}  // namespace mpe::maxpower
