#include "evt/weibull_mle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/metrics.hpp"

namespace mpe::evt {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Root tolerance of the shape solve (absolute, in alpha).
constexpr double kShapeXtol = 1e-10;
/// Bracket tolerance of the endpoint searches, in log(mu - max x_i).
constexpr double kSearchXtol = 1e-10;
constexpr int kShapeMaxIter = 100;
constexpr int kSearchMaxIter = 200;

/// Power sums of the shifted logs d_i = t_i - max t (all <= 0, so no exp()
/// argument is positive) at one shape alpha, with weights w_i = exp(alpha
/// d_i) = (z_i / z_max)^alpha.
struct PowerSums {
  double s0;    ///< sum w_i
  double mean;  ///< sum w_i d_i / s0
  double var;   ///< sum w_i d_i^2 / s0 - mean^2, clamped at 0
};

PowerSums power_sums(std::span<const double> d, double alpha) {
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  for (double di : d) {
    const double w = std::exp(alpha * di);
    s0 += w;
    s1 += w * di;
    s2 += w * di * di;
  }
  const double mean = s1 / s0;
  return {s0, mean, std::max(s2 / s0 - mean * mean, 0.0)};
}

}  // namespace
double weibull_log_likelihood(std::span<const double> maxima,
                              const stats::WeibullParams& p) {
  MPE_EXPECTS(!maxima.empty());
  if (p.alpha <= 0.0 || p.beta <= 0.0) return kNegInf;
  double ll = 0.0;
  for (double x : maxima) {
    if (x >= p.mu) return kNegInf;
    const double z = p.mu - x;
    ll += std::log(p.alpha) + std::log(p.beta) +
          (p.alpha - 1.0) * std::log(z) - p.beta * std::pow(z, p.alpha);
  }
  return ll;
}

namespace {

/// The inner solve at endpoint `mu`, starting from shape `alpha_start`
/// (<= 0: the moment start pi / (sqrt 6 sd(log z_i)), exact for a Gumbel
/// log z). `d` is caller-owned scratch, so one profile search reuses a
/// single buffer; every power-sum pass adds one to `shape_evals`.
///
/// The shape solves psi(alpha) = m/alpha + sum t_i - m R(alpha) = 0, R the
/// z^alpha-weighted mean of t_i = log z_i. Newton runs on alpha psi / m =
/// 1 - alpha (R - mean t), which has the same sign, falls strictly from 1
/// at alpha = 0 and has the derivative -(R - mean t) - alpha Var_w(t), so
/// the pass that gives R also gives the step. A Newton step that leaves the
/// sign bracket becomes a geometric bisection; one that leaves the search
/// range evaluates that bound, which is where the degenerate outcomes
/// (all mass at the smallest shape, or the shape cap) are decided.
FixedMuFit fixed_mu_fit(std::span<const double> maxima, double mu,
                        const WeibullMleOptions& opt, double alpha_start,
                        std::vector<double>& d, int& shape_evals) {
  FixedMuFit fit;
  const auto m = static_cast<double>(maxima.size());

  d.clear();  // t_i = log(mu - x_i), shifted below to d_i = t_i - tmax
  double tsum = 0.0;
  double tabs_max = 0.0;
  double tmax = kNegInf;
  for (double x : maxima) {
    if (x >= mu) return fit;  // infeasible endpoint
    const double ti = std::log(mu - x);
    d.push_back(ti);
    tsum += ti;
    tabs_max = std::max(tabs_max, std::fabs(ti));
    tmax = std::max(tmax, ti);
  }
  double dsum = 0.0;
  double dsq = 0.0;
  for (double& di : d) {
    di -= tmax;
    dsum += di;
    dsq += di * di;
  }
  const double dbar = dsum / m;

  const double lo = opt.alpha_min;
  // Cap the shape so |log beta| <= ~600 + log m stays representable in a
  // double: beta = m / sum z_i^alpha and |log sum z_i^alpha| <= alpha *
  // max|log z_i| + log m. Without the cap, near-Gumbel ridge fits drive
  // beta to exact floating-point zero and break quantile evaluation.
  const double hi_cap =
      tabs_max > 1e-12 ? std::max(600.0 / tabs_max, 10.0) : opt.alpha_max;
  const double hi = std::min(opt.alpha_max, hi_cap);

  if (!(alpha_start > 0.0)) {
    const double sd = std::sqrt(std::max(dsq / m - dbar * dbar, 0.0));
    alpha_start = 1.2825498301618641 / sd;  // pi / sqrt(6); inf if sd = 0
  }
  double alpha = std::clamp(alpha_start, lo, hi);
  double a = lo;  // phi(a) > 0 once a_known
  double b = hi;  // phi(b) < 0 once b_known
  bool a_known = false;
  bool b_known = false;
  double at = alpha;  // the shape the power sums `ps` belong to
  PowerSums ps{};
  for (int it = 0; it < kShapeMaxIter; ++it) {
    at = alpha;
    ps = power_sums(d, alpha);
    ++shape_evals;
    const double phi = 1.0 - alpha * (ps.mean - dbar);  // alpha psi / m
    if ((alpha == lo && phi <= 0.0) || (alpha == hi && phi >= 0.0)) {
      break;  // degenerate: all mass at tiny shape, or near-identical z_i
    }
    if (phi == 0.0) {
      fit.converged = true;
      break;
    }
    if (phi > 0.0) {
      a = alpha;
      a_known = true;
    } else {
      b = alpha;
      b_known = true;
    }
    const double tol = 2.0 * 2.2e-16 * alpha + 0.5 * kShapeXtol;
    const double step = phi / ((ps.mean - dbar) + alpha * ps.var);
    if (std::fabs(step) <= tol || (a_known && b_known && b - a <= tol)) {
      fit.converged = true;
      break;
    }
    const double next = alpha + step;
    if (next > a && next < b) {
      alpha = next;
    } else if (phi > 0.0 ? !b_known : !a_known) {
      alpha = phi > 0.0 ? hi : lo;  // the root may lie at the bound
    } else {
      alpha = std::sqrt(a * b);
    }
  }
  alpha = at;

  const double log_beta = std::log(m) - (alpha * tmax + std::log(ps.s0));
  fit.alpha = alpha;
  fit.beta = std::exp(log_beta);
  // ell = m log(alpha) + m log(beta) + (alpha-1) sum t_i - beta * S0
  //     = m log(alpha) + m log(beta) + (alpha-1) sum t_i - m.
  fit.log_likelihood =
      m * std::log(alpha) + m * log_beta + (alpha - 1.0) * tsum - m;
  if (alpha == lo || alpha == hi) fit.converged = false;
  return fit;
}

}  // namespace

FixedMuFit fit_weibull_mle_fixed_mu(std::span<const double> maxima, double mu,
                                    const WeibullMleOptions& opt) {
  MPE_EXPECTS(maxima.size() >= 2);
  std::vector<double> d;
  d.reserve(maxima.size());
  int shape_evals = 0;
  return fixed_mu_fit(maxima, mu, opt, 0.0, d, shape_evals);
}

namespace {

/// Fit-outcome metrics (thread-safe; fits run concurrently inside the
/// parallel estimator). Catalog in docs/OBSERVABILITY.md.
struct MleMetrics {
  util::Counter fits;
  util::Counter nonconverged;
  util::Counter alpha_below_two;
  util::Counter ridge_fallbacks;
  util::Counter profile_evals;
  util::Counter shape_evals;
  util::Histogram evals_per_fit;

  MleMetrics() {
    auto& reg = util::MetricRegistry::global();
    fits = reg.counter("mpe_mle_fits_total");
    nonconverged = reg.counter("mpe_mle_nonconverged_total");
    alpha_below_two = reg.counter("mpe_mle_alpha_below_two_total");
    ridge_fallbacks = reg.counter("mpe_mle_ridge_fallback_total");
    profile_evals = reg.counter("mpe_mle_profile_evals_total");
    shape_evals = reg.counter("mpe_mle_shape_evals_total");
    evals_per_fit = reg.histogram("mpe_mle_profile_evals_per_fit");
  }
};

void record_fit(const WeibullMleResult& out) {
  static MleMetrics m;
  m.fits.inc();
  if (!out.converged) m.nonconverged.inc();
  if (out.alpha_below_two) m.alpha_below_two.inc();
  if (out.ridge_fallback) m.ridge_fallbacks.inc();
  m.profile_evals.inc(static_cast<std::uint64_t>(out.profile_evaluations));
  m.shape_evals.inc(static_cast<std::uint64_t>(out.shape_evaluations));
  m.evals_per_fit.observe(
      static_cast<std::uint64_t>(out.profile_evaluations));
}

/// One profile point: endpoint mu = max(x_i) + exp(ld) and its inner solve.
struct ProfilePoint {
  double ld = 0.0;
  double mu = 0.0;
  FixedMuFit fit;
};

/// Maximizes the profile over the log-delta bracket [a, b] with Brent's
/// parabolic search, seeded with the best grid point `x` and its grid
/// neighbours `w` and `v` (at the grid's ends one of them is `x` itself),
/// so the first step can already be parabolic. A refused parabolic step
/// becomes a golden-section step, except from a bracket end (only the edge
/// grid points start there): that step probes the minimum distance
/// inward, so a profile that falls away from the end stops after one solve
/// instead of shrinking the bracket at the golden rate. Stops, as the
/// golden-section search did, once the bracket is about
/// kSearchXtol * (|a| + |b| + 1) wide; returns the best point.
template <typename Solve>
ProfilePoint maximize_profile(ProfilePoint x, ProfilePoint w, ProfilePoint v,
                              double a, double b, Solve&& solve) {
  constexpr double kCgold = 0.3819660112501051;
  double d = 0.0;
  double e = b - a;  // lets the first step be parabolic
  for (int it = 0; it < kSearchMaxIter; ++it) {
    const double xm = 0.5 * (a + b);
    const double tol1 = 0.25 * kSearchXtol * (2.0 * std::fabs(x.ld) + 1.0);
    const double tol2 = 2.0 * tol1;
    if (std::fabs(x.ld - xm) <= tol2 - 0.5 * (b - a)) break;
    // Minimize f = -log-likelihood.
    const double fx = -x.fit.log_likelihood;
    const double fw = -w.fit.log_likelihood;
    const double fv = -v.fit.log_likelihood;
    bool parabolic = false;
    if (std::fabs(e) > tol1) {
      const double r = (x.ld - w.ld) * (fx - fv);
      double q = (x.ld - v.ld) * (fx - fw);
      double p = (x.ld - v.ld) * q - (x.ld - w.ld) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::fabs(q);
      // Accept a step inside the bracket and shorter than half the step
      // before last.
      if (std::fabs(p) < std::fabs(0.5 * q * e) && p > q * (a - x.ld) &&
          p < q * (b - x.ld)) {
        e = d;
        d = p / q;
        const double u = x.ld + d;
        if (u - a < tol2 || b - u < tol2) d = std::copysign(tol1, xm - x.ld);
        parabolic = true;
      }
    }
    const bool probe = !parabolic && (x.ld == a || x.ld == b);
    if (probe) {
      d = std::copysign(tol1, xm - x.ld);
    } else if (!parabolic) {
      e = (x.ld >= xm ? a : b) - x.ld;
      d = kCgold * e;
    }
    const double u_ld =
        x.ld + (std::fabs(d) >= tol1 ? d : std::copysign(tol1, d));
    // A probe that finds the profile rising leaves a fresh bracket: let the
    // next two steps be parabolic, as at the start.
    if (probe) e = d = b - a;
    const ProfilePoint u = solve(u_ld, x.fit.alpha);
    const double fu = -u.fit.log_likelihood;
    if (fu <= fx) {
      (u.ld >= x.ld ? a : b) = x.ld;
      v = w;
      w = x;
      x = u;
    } else {
      (u.ld < x.ld ? a : b) = u.ld;
      if (fu <= fw || w.ld == x.ld) {
        v = w;
        w = u;
      } else if (fu <= fv || v.ld == x.ld || v.ld == w.ld) {
        v = u;
      }
    }
  }
  return x;
}

}  // namespace

WeibullMleResult fit_weibull_mle(std::span<const double> maxima,
                                 const WeibullMleOptions& opt) {
  MPE_EXPECTS(maxima.size() >= 3);
  WeibullMleResult out;

  const double xmax = *std::max_element(maxima.begin(), maxima.end());
  const double xmin = *std::min_element(maxima.begin(), maxima.end());
  double spread = xmax - xmin;
  if (spread <= 0.0) {
    // Degenerate sample: every maximum identical. Report a point mass.
    out.params = {opt.alpha_max, 1.0, xmax};
    out.converged = false;
    out.mu_at_lower_bound = true;
    record_fit(out);
    return out;
  }

  // Every inner solve of this fit shares one scratch buffer and tallies its
  // shape evaluations locally; `solves` counts the solves computed (grid
  // points and search points are kept, never solved twice).
  std::vector<double> d;
  d.reserve(maxima.size());
  int solves = 0;
  int shape_evals = 0;
  auto solve = [&](double ld, double alpha_start) {
    ++solves;
    ProfilePoint p;
    p.ld = ld;
    p.mu = xmax + std::exp(ld);
    p.fit = fixed_mu_fit(maxima, p.mu, opt, alpha_start, d, shape_evals);
    return p;
  };

  // Coarse scan of mu = xmax + delta on a log grid, each solve started from
  // its lower neighbour's shape.
  const int n_grid = std::max(opt.grid_points, 8);
  const double log_lo = std::log(opt.lo_frac * spread);
  const double log_hi = std::log(opt.hi_frac * spread);
  int best_idx = 0;
  double best_ll = kNegInf;
  std::vector<ProfilePoint> grid(static_cast<std::size_t>(n_grid));
  for (int i = 0; i < n_grid; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const double ld =
        log_lo + (log_hi - log_lo) * static_cast<double>(i) / (n_grid - 1);
    double start = k > 0 ? grid[k - 1].fit.alpha : 0.0;
    if (k > 1 && grid[k - 2].fit.alpha > 0.0 && start > 0.0) {
      start *= start / grid[k - 2].fit.alpha;
    }
    grid[k] = solve(ld, start);
    if (grid[k].fit.log_likelihood > best_ll) {
      best_ll = grid[k].fit.log_likelihood;
      best_idx = i;
    }
  }

  out.mu_at_lower_bound = (best_idx == 0);
  out.mu_at_upper_bound = (best_idx == n_grid - 1);

  // Refine between the grid neighbours of the best point, in log-delta
  // space where the profile is smooth.
  const auto at = [&](int i) -> const ProfilePoint& {
    return grid[static_cast<std::size_t>(std::clamp(i, 0, n_grid - 1))];
  };
  const ProfilePoint& left = at(best_idx - 1);
  const ProfilePoint& right = at(best_idx + 1);
  ProfilePoint hat =
      maximize_profile(at(best_idx), left, right, left.ld, right.ld, solve);

  // Ridge stabilization: if the maximum sits implausibly far above the
  // sample (the Weibull->Gumbel degeneracy), report the smallest endpoint
  // whose profile likelihood is within ridge_tolerance of the maximum.
  if (opt.ridge_tolerance > 0.0 &&
      (hat.mu - xmax) > opt.ridge_spread_factor * spread) {
    out.ridge_fallback = true;
    const double target = hat.fit.log_likelihood - opt.ridge_tolerance;
    // The first grid point below the maximum that reaches the target
    // brackets the crossing with its lower neighbour; if none does, the
    // crossing lies between the last grid point below the maximum and the
    // maximum itself.
    std::size_t k = 0;
    while (k < grid.size() && grid[k].mu < hat.mu &&
           grid[k].fit.log_likelihood < target) {
      ++k;
    }
    const bool grid_crossing = k < grid.size() && grid[k].mu < hat.mu;
    if (grid_crossing && k == 0) {
      hat = grid[0];
    } else if (k > 0) {
      // Root of l(ld) - target between lo (below the target) and hi (at or
      // above it). Every solve is kept; the report is the lowest endpoint
      // seen at or above the target, which keeps l(mu_hat) >= target.
      const ProfilePoint lo = grid[k - 1];
      if (grid_crossing) hat = grid[k];
      double alpha_last = hat.fit.alpha;
      auto gap = [&](double ld) {
        const ProfilePoint p = solve(ld, alpha_last);
        alpha_last = p.fit.alpha;
        if (p.fit.log_likelihood >= target && p.ld < hat.ld) hat = p;
        return p.fit.log_likelihood - target;
      };
      const double g_lo = lo.fit.log_likelihood - target;
      const double g_hi = hat.fit.log_likelihood - target;
      if (g_lo < 0.0 && g_hi > 0.0) {
        (void)math::brent_root(gap, lo.ld, hat.ld, g_lo, g_hi, kSearchXtol,
                               kSearchMaxIter);
      }
    }
  }

  out.params.alpha = hat.fit.alpha;
  out.params.beta = hat.fit.beta;
  out.params.mu = hat.mu;
  out.log_likelihood = hat.fit.log_likelihood;
  out.profile_evaluations = solves;
  out.shape_evaluations = shape_evals;
  out.alpha_below_two = hat.fit.alpha <= 2.0;
  // A ridge-stabilized fit is a usable estimate even when the unrestricted
  // maximum ran into the upper search bound.
  out.converged = hat.fit.converged && !out.mu_at_lower_bound &&
                  (!out.mu_at_upper_bound || out.ridge_fallback);
  record_fit(out);
  return out;
}

}  // namespace mpe::evt
