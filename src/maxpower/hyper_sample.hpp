// Hyper-sample construction (Figure 3 of the paper): draw m samples of n
// units each, take each sample's maximum power, fit the generalized Weibull
// by maximum likelihood, and report one maximum-power estimate. For finite
// populations the estimate is the (1 - 1/|V|) quantile of the fitted law
// rather than the endpoint mu ("finite population estimator", Section 3.4).
#pragma once

#include <cstddef>
#include <optional>

#include "evt/weibull_mle.hpp"
#include "vectors/population.hpp"

namespace mpe::maxpower {

class UnitSource;  // maxpower/unit_source.hpp
class TailFitter;  // maxpower/tail_fitter.hpp

/// MLE options for the hyper-sample pipeline: the *raw* (unstabilized)
/// maximum-likelihood fit, as in the paper. Ridge excursions of the raw fit
/// are harmless here because the finite-population quantile (Section 3.4)
/// maps even near-Gumbel ridge fits to finite, sensible estimates — and
/// empirically the raw fit tracks long-tailed circuit populations much
/// better than a stabilized one.
inline evt::WeibullMleOptions raw_mle_options() {
  evt::WeibullMleOptions opt;
  opt.ridge_tolerance = 0.0;
  return opt;
}

/// What to do with a hyper-sample whose Weibull fit is degenerate — the MLE
/// failed to converge, or the fitted shape has alpha <= 2 so Smith's
/// asymptotic-normality conditions for the non-regular MLE are violated.
/// The values enter the checkpoint fingerprint, so they are pinned: 1 was
/// a PWM refit policy, since removed.
enum class DegenerateFitPolicy {
  /// The paper's (implicit) behavior: fold the raw fit into the mean anyway
  /// and only count it. Default, and the only policy the bit-exact golden
  /// tests run under.
  kUseAnyway = 0,
  /// Discard the hyper-sample and draw a fresh one in its place (bounded by
  /// EstimatorOptions::max_redraws across the run).
  kDiscardRedraw = 2,
};

/// Options for one hyper-sample.
struct HyperSampleOptions {
  std::size_t n = 30;  ///< sample size (units per sample maximum)
  std::size_t m = 10;  ///< number of sample maxima fed to the MLE
  /// Apply the finite-population quantile correction when the population is
  /// finite. When false, the fitted endpoint mu-hat is reported.
  bool finite_correction = true;
  evt::WeibullMleOptions mle = raw_mle_options();
  /// Ridge tolerance for the *endpoint* path (infinite populations or
  /// finite_correction == false): its single fit uses this in place of a
  /// non-positive `mle.ridge_tolerance`, because a raw ridge fit would
  /// report an unbounded endpoint. Ignored when the quantile path is taken.
  double endpoint_ridge_tolerance = 0.5;
  /// Degradation policy for degenerate fits (see DegenerateFitPolicy). The
  /// kDiscardRedraw policy is applied by the estimator loop, not here.
  DegenerateFitPolicy degenerate_policy = DegenerateFitPolicy::kUseAnyway;
};

/// Result of one hyper-sample (one P-hat_{i,MAX}).
struct HyperSampleResult {
  double estimate = 0.0;            ///< the max-power estimate
  double mu_hat = 0.0;              ///< raw MLE endpoint (no correction)
  evt::WeibullMleResult mle;        ///< full fit diagnostics
  std::size_t units_used = 0;       ///< n * m
  double sample_max = 0.0;          ///< largest finite unit power seen
  /// False when the draw was unusable — some sample had no finite unit at
  /// all, so no set of m maxima could be formed. The estimator must discard
  /// invalid hyper-samples regardless of policy.
  bool valid = true;
  /// Raw fit was degenerate: non-converged, or fitted alpha <= 2.
  bool degenerate = false;
  /// All m maxima were equal; the fit was skipped and the estimate is that
  /// common value (flagged degenerate).
  bool constant_sample = false;
  std::size_t nonfinite_units = 0;  ///< NaN/Inf draws excluded from maxima
};

/// Draws one hyper-sample from a unit source, fitting the tail with the
/// given strategy (maxpower/tail_fitter.hpp). The shared pipeline —
/// batched draw, block-maxima formation, constant-sample short-circuit,
/// observed-max clamp, non-finite guard — is identical for every fitter.
HyperSampleResult draw_hyper_sample(UnitSource& source,
                                    const HyperSampleOptions& options,
                                    const TailFitter& fitter, Rng& rng);

/// Draws one hyper-sample from the population with the paper's default
/// reversed-Weibull MLE fitter. Equivalent to wrapping `population` in a
/// PopulationUnitSource and passing default_tail_fitter().
HyperSampleResult draw_hyper_sample(vec::Population& population,
                                    const HyperSampleOptions& options,
                                    Rng& rng);

/// Applies the finite-population correction to a fitted law: the paper's
/// G^{-1}(1 - 1/|V|) on the fitted sample-maxima law (justified through
/// tail equivalence) for population size `v`. Exposed for tests.
double finite_population_estimate(const stats::WeibullParams& params,
                                  std::size_t v);

}  // namespace mpe::maxpower
