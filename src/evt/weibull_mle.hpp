// Maximum-likelihood estimation of the 3-parameter reversed Weibull
// (Eqn 2.16) from a small set of sample maxima — the paper's Section 2.2 /
// 3.2 machinery, following Smith's treatment of non-regular MLE: the
// estimators are consistent and asymptotically normal when the true shape
// alpha exceeds 2.
//
// Numerical strategy (robust for m as small as 10):
//   * Profile likelihood. For fixed endpoint mu, z_i = mu - x_i reduces the
//     problem to the standard 2-parameter Weibull MLE: beta has the closed
//     form m / sum z_i^alpha, and alpha solves a strictly decreasing 1-D
//     equation psi(alpha) = 0. That shape solve is a safeguarded Newton
//     iteration: one pass over the z_i gives psi and its derivative (the
//     z^alpha-weighted variance of log z_i), a step that leaves the sign
//     bracket bisects it geometrically, and each solve starts from the
//     shape of the neighbouring endpoint, so most take two or three passes.
//   * The profile over mu is maximized on a log-spaced grid above max(x_i),
//     then refined between the best grid point's neighbours by Brent's
//     parabolic search on the profile values, seeded with those three grid
//     points (golden-section steps where a parabola is refused).
//   * On the Weibull->Gumbel ridge the reported endpoint is the lowest one
//     within `ridge_tolerance` of the maximum, a bracketed root (Brent) of
//     the profile minus that target.
//   * All powers are evaluated in shifted log space so large alpha cannot
//     overflow.
#pragma once

#include <span>

#include "stats/weibull.hpp"

namespace mpe::evt {

/// Revision of the profile solver. Two solvers stop at different points
/// within their tolerances, so fitted values differ in the last digits; the
/// run fingerprint folds this in, and a checkpoint written under another
/// revision is refused instead of mixing both solvers' values in one run.
/// 1: cold Brent shape roots, golden-section endpoint search. 2: warm-started
/// Newton shape solves, Brent parabolic endpoint search.
inline constexpr int kWeibullMleSolverRevision = 2;

/// Diagnostics and outcome of one MLE fit.
struct WeibullMleResult {
  stats::WeibullParams params;   ///< fitted (alpha, beta, mu)
  double log_likelihood = 0.0;   ///< maximized mean log-likelihood * m
  bool converged = false;        ///< inner and outer solves both converged
  bool mu_at_lower_bound = false;  ///< endpoint pinned just above max(x_i)
  bool mu_at_upper_bound = false;  ///< profile still rising at the search cap
                                   ///< (data look Gumbel-tailed)
  bool alpha_below_two = false;  ///< fitted shape <= 2: Smith's asymptotic
                                 ///< normality assumptions are violated
  /// The unrestricted maximum sat on the Weibull->Gumbel likelihood ridge
  /// (endpoint implausibly far above the sample); the reported mu is the
  /// smallest endpoint within `ridge_tolerance` log-likelihood units of the
  /// ridge maximum instead of the ridge point itself.
  bool ridge_fallback = false;
  /// Fixed-endpoint (profile) solves computed: the grid, the refinement
  /// search and, on the ridge, the crossing search. None is solved twice.
  int profile_evaluations = 0;
  /// Shape-equation evaluations over all those solves; each is one pass of
  /// m exp() calls, the unit of the fit's cost.
  int shape_evaluations = 0;
};

/// Options for the profile search.
struct WeibullMleOptions {
  /// Endpoint search range, as multiples of the sample spread above max(x):
  /// mu in [max + lo_frac*spread, max + hi_frac*spread].
  double lo_frac = 1e-6;
  double hi_frac = 1e3;
  int grid_points = 80;      ///< coarse log-grid resolution over mu
  double alpha_min = 1e-3;   ///< inner shape search bounds
  double alpha_max = 1e4;
  /// Ridge stabilization. The 3-parameter Weibull likelihood can increase
  /// monotonically as mu -> inf (approaching a Gumbel fit) — a well-known
  /// non-regularity. When the profile maximum lands more than
  /// `ridge_spread_factor` sample spreads above max(x_i), the fit instead
  /// reports the smallest mu whose profile log-likelihood is within
  /// `ridge_tolerance` of the maximum. Set ridge_tolerance = 0 to disable
  /// and get the raw (possibly divergent) MLE.
  double ridge_spread_factor = 3.0;
  double ridge_tolerance = 0.5;
};

/// Fits the 3-parameter reversed Weibull to `maxima` (m >= 3 distinct-ish
/// values). Never throws on hard data; inspect `converged` and the boundary
/// flags instead.
WeibullMleResult fit_weibull_mle(std::span<const double> maxima,
                                 const WeibullMleOptions& opt = {});

/// Inner solve used by the profile: 2-parameter Weibull MLE for z_i = mu -
/// x_i with fixed endpoint mu > max(x_i). Exposed for tests and diagnostics.
/// Returns fitted (alpha, beta) and the attained log-likelihood. Starts cold
/// from a moment estimate of the shape; inside fit_weibull_mle each solve
/// starts from its neighbour's shape instead.
struct FixedMuFit {
  double alpha = 0.0;
  double beta = 0.0;
  double log_likelihood = 0.0;
  bool converged = false;
};
FixedMuFit fit_weibull_mle_fixed_mu(std::span<const double> maxima, double mu,
                                    const WeibullMleOptions& opt = {});

/// Exact log-likelihood of the parameter triple on the sample (sum over
/// points; -inf if any x_i >= mu).
double weibull_log_likelihood(std::span<const double> maxima,
                              const stats::WeibullParams& p);

}  // namespace mpe::evt
