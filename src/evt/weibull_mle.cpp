#include "evt/weibull_mle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/metrics.hpp"

namespace mpe::evt {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Shifted-log accumulator: given t_i = log z_i, computes
///   S0 = sum exp(alpha t_i)        (as log, shifted)
///   R  = sum t_i exp(alpha t_i) / S0
/// without overflow for any alpha.
struct PowerSums {
  double log_s0;  ///< log sum z_i^alpha
  double ratio;   ///< weighted mean of t_i with weights z_i^alpha
};

/// `tmax` = max t_i, the shift that keeps every exp() argument <= 0; it
/// depends only on the endpoint, so callers compute it once per mu.
PowerSums power_sums(std::span<const double> t, double tmax, double alpha) {
  double s0 = 0.0;
  double s1 = 0.0;
  for (double ti : t) {
    const double w = std::exp(alpha * (ti - tmax));
    s0 += w;
    s1 += w * ti;
  }
  return {alpha * tmax + std::log(s0), s1 / s0};
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

/// The inner solve at endpoint `mu`. `t` is caller-owned scratch, so one
/// profile search reuses a single buffer across all its evaluations.
FixedMuFit fixed_mu_fit(std::span<const double> maxima, double mu,
                        const WeibullMleOptions& opt, std::vector<double>& t) {
  FixedMuFit fit;
  const auto m = static_cast<double>(maxima.size());

  t.clear();  // t_i = log(mu - x_i)
  double tsum = 0.0;
  double tabs_max = 0.0;
  for (double x : maxima) {
    if (x >= mu) return fit;  // infeasible endpoint
    const double ti = std::log(mu - x);
    t.push_back(ti);
    tsum += ti;
    tabs_max = std::max(tabs_max, std::fabs(ti));
  }
  const double tmax = *std::max_element(t.begin(), t.end());

  // psi(alpha) = m/alpha + sum t_i - m * R(alpha); strictly decreasing.
  auto psi = [&](double alpha) {
    const PowerSums ps = power_sums(t, tmax, alpha);
    return m / alpha + tsum - m * ps.ratio;
  };

  double lo = opt.alpha_min;
  // Cap the shape so |log beta| <= ~600 + log m stays representable in a
  // double: beta = m / sum z_i^alpha and |log sum z_i^alpha| <= alpha *
  // max|log z_i| + log m. Without the cap, near-Gumbel ridge fits drive
  // beta to exact floating-point zero and break quantile evaluation.
  const double hi_cap =
      tabs_max > 1e-12 ? std::max(600.0 / tabs_max, 10.0) : opt.alpha_max;
  double hi = std::min(opt.alpha_max, hi_cap);
  const double psi_lo = psi(lo);
  const double psi_hi = psi(hi);
  double alpha_hat;
  if (psi_lo <= 0.0) {
    alpha_hat = lo;  // degenerate: all mass at tiny shape
  } else if (psi_hi >= 0.0) {
    alpha_hat = hi;  // degenerate: near-identical z_i (huge shape)
  } else {
    const auto r = math::brent_root(psi, lo, hi, psi_lo, psi_hi, 1e-10);
    alpha_hat = r.x;
    fit.converged = r.converged;
  }

  const PowerSums ps = power_sums(t, tmax, alpha_hat);
  const double log_beta = std::log(m) - ps.log_s0;
  fit.alpha = alpha_hat;
  fit.beta = std::exp(log_beta);
  // ell = m log(alpha) + m log(beta) + (alpha-1) sum t_i - beta * S0
  //     = m log(alpha) + m log(beta) + (alpha-1) sum t_i - m.
  fit.log_likelihood =
      m * std::log(alpha_hat) + m * log_beta + (alpha_hat - 1.0) * tsum - m;
  if (alpha_hat == lo || alpha_hat == hi) fit.converged = false;
  return fit;
}

}  // namespace

FixedMuFit fit_weibull_mle_fixed_mu(std::span<const double> maxima, double mu,
                                    const WeibullMleOptions& opt) {
  MPE_EXPECTS(maxima.size() >= 2);
  std::vector<double> t;
  t.reserve(maxima.size());
  return fixed_mu_fit(maxima, mu, opt, t);
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
  util::Histogram evals_per_fit;

  MleMetrics() {
    auto& reg = util::MetricRegistry::global();
    fits = reg.counter("mpe_mle_fits_total");
    nonconverged = reg.counter("mpe_mle_nonconverged_total");
    alpha_below_two = reg.counter("mpe_mle_alpha_below_two_total");
    ridge_fallbacks = reg.counter("mpe_mle_ridge_fallback_total");
    profile_evals = reg.counter("mpe_mle_profile_evals_total");
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
  m.evals_per_fit.observe(
      static_cast<std::uint64_t>(out.profile_evaluations));
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

  // `evals` counts the inner solves actually computed: the ridge walk and
  // the final solves reuse earlier ones instead of solving again.
  std::vector<double> t;  // scratch shared by every inner solve of this fit
  t.reserve(maxima.size());
  int evals = 0;
  auto solve = [&](double mu) {
    ++evals;
    return fixed_mu_fit(maxima, mu, opt, t);
  };

  // Coarse scan of mu = xmax + delta on a log grid.
  const double lo_delta = opt.lo_frac * spread;
  const double hi_delta = opt.hi_frac * spread;
  const int n_grid = std::max(opt.grid_points, 8);
  const double log_lo = std::log(lo_delta);
  const double log_hi = std::log(hi_delta);
  int best_idx = 0;
  double best_ll = kNegInf;
  std::vector<double> deltas(static_cast<std::size_t>(n_grid));
  std::vector<double> grid_ll(static_cast<std::size_t>(n_grid));
  for (int i = 0; i < n_grid; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const double ld =
        log_lo + (log_hi - log_lo) * static_cast<double>(i) / (n_grid - 1);
    deltas[k] = std::exp(ld);
    grid_ll[k] = solve(xmax + deltas[k]).log_likelihood;
    if (grid_ll[k] > best_ll) {
      best_ll = grid_ll[k];
      best_idx = i;
    }
  }

  out.mu_at_lower_bound = (best_idx == 0);
  out.mu_at_upper_bound = (best_idx == n_grid - 1);

  // Golden-section refinement between the grid neighbors of the best point
  // (in log-delta space, where the profile is smooth). The minimizer returns
  // one of the points it evaluated, so its solve is kept rather than redone.
  const int lo_i = std::max(best_idx - 1, 0);
  const int hi_i = std::min(best_idx + 1, n_grid - 1);
  std::vector<std::pair<double, FixedMuFit>> golden;
  golden.reserve(64);
  auto neg_profile_logdelta = [&](double ld) {
    golden.emplace_back(ld, solve(xmax + std::exp(ld)));
    return -golden.back().second.log_likelihood;
  };
  const auto gm = math::golden_minimize(
      neg_profile_logdelta, std::log(deltas[static_cast<std::size_t>(lo_i)]),
      std::log(deltas[static_cast<std::size_t>(hi_i)]), 1e-10, 200);

  double mu_hat = xmax + std::exp(gm.x);
  const auto at_min =
      std::find_if(golden.begin(), golden.end(),
                   [&](const auto& e) { return e.first == gm.x; });
  // Only a NaN minimizer (non-finite maxima) misses the lookup.
  FixedMuFit inner = at_min != golden.end() ? at_min->second : solve(mu_hat);

  // Ridge stabilization: if the maximum sits implausibly far above the
  // sample (the Weibull->Gumbel degeneracy), report the smallest endpoint
  // whose profile likelihood is within ridge_tolerance of the maximum.
  if (opt.ridge_tolerance > 0.0 &&
      (mu_hat - xmax) > opt.ridge_spread_factor * spread) {
    out.ridge_fallback = true;
    const double target = inner.log_likelihood - opt.ridge_tolerance;
    // Walk the coarse grid up from the smallest delta to bracket the first
    // crossing of the target level.
    double lo_delta_x = deltas.front();
    double hi_delta_x = mu_hat - xmax;
    double prev_delta = deltas.front();
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      if (xmax + deltas[k] >= mu_hat) break;
      if (grid_ll[k] >= target) {
        lo_delta_x = prev_delta;
        hi_delta_x = deltas[k];
        break;
      }
      prev_delta = deltas[k];
    }
    // Bisect the crossing in log-delta space. Stop once the midpoint rounds
    // onto hi_ld (hi_ld cannot move, whatever the profile says there) or onto
    // a lo_ld already known to miss the target: every further step would
    // re-evaluate that same double and change nothing.
    double lo_ld = std::log(lo_delta_x);
    double hi_ld = std::log(hi_delta_x);
    bool lo_below = false;     // profile at lo_ld known to miss the target
    bool hi_solved = false;    // hi_fit is the solve at hi_ld
    FixedMuFit hi_fit;
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo_ld + hi_ld);
      if (mid == hi_ld || (mid == lo_ld && lo_below)) break;
      const FixedMuFit f = solve(xmax + std::exp(mid));
      if (f.log_likelihood >= target) {
        hi_ld = mid;
        hi_fit = f;
        hi_solved = true;
      } else {
        lo_ld = mid;
        lo_below = true;
      }
    }
    mu_hat = xmax + std::exp(hi_ld);
    inner = hi_solved ? hi_fit : solve(mu_hat);
  }

  out.params.alpha = inner.alpha;
  out.params.beta = inner.beta;
  out.params.mu = mu_hat;
  out.log_likelihood = inner.log_likelihood;
  out.profile_evaluations = evals;
  out.alpha_below_two = inner.alpha <= 2.0;
  // A ridge-stabilized fit is a usable estimate even when the unrestricted
  // maximum ran into the upper search bound.
  out.converged = inner.converged && !out.mu_at_lower_bound &&
                  (!out.mu_at_upper_bound || out.ridge_fallback);
  record_fit(out);
  return out;
}

}  // namespace mpe::evt
