// The Weibull fit's solver against the earlier one. The profile MLE is the
// same estimator (same grid, objective, bracket, ridge rule and flags); only
// how it is solved changed: warm-started Newton shape solves, a seeded
// parabolic endpoint search and a bracketed ridge-crossing root replace
// cold Brent roots, golden section and bisection. Two solvers that stop at
// the same tolerances on a function this flat at its maximum land on
// slightly different points, so the gate is a tolerance, not bit equality.
// Over 6 400 maxima sets (zero-delay c432/c7552 hyper-samples, the loaded
// c1355/c2670 Table-1 populations, analytic reversed-Weibull laws at
// alpha in {1, 2, 3, 5} and a shape sweep, near-Gumbel ridge fits and
// lower-bound fits), against a verbatim copy of the earlier fit:
//   * the flags (converged, mu_at_lower_bound, mu_at_upper_bound,
//     alpha_below_two, ridge_fallback) agree on at least 99.9% of sets;
//   * on every set the new log-likelihood is at least the old one minus
//     1e-8 (1 + |l|): the new solver never settles on a worse point;
//   * the estimate moves by at most 1e-6 relative on at least 99.9% of sets
//     and by at most 1e-4 on every set;
//   * no set needs more profile solves than before.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "evt/weibull_mle.hpp"
#include "fit_corpus.hpp"
#include "maxpower/hyper_sample.hpp"
#include "maxpower/tail_fitter.hpp"
#include "stats/weibull.hpp"
#include "util/math.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

namespace evt = mpe::evt;
namespace mp = mpe::maxpower;
namespace math = mpe::math;
using fit_corpus::MaximaSet;

// ---------------------------------------------------------------------------
// Oracle: the earlier profile MLE, verbatim: a cold Brent root for the
// shape at every endpoint, golden-section refinement, and a 60-step
// bisection for the ridge crossing.

struct RefPowerSums {
  double log_s0;
  double ratio;
};

RefPowerSums ref_power_sums(std::span<const double> t, double alpha) {
  const double tmax = *std::max_element(t.begin(), t.end());
  double s0 = 0.0;
  double s1 = 0.0;
  for (double ti : t) {
    const double w = std::exp(alpha * (ti - tmax));
    s0 += w;
    s1 += w * ti;
  }
  return {alpha * tmax + std::log(s0), s1 / s0};
}

evt::FixedMuFit ref_fixed_mu(std::span<const double> maxima, double mu,
                             const evt::WeibullMleOptions& opt) {
  evt::FixedMuFit fit;
  const auto m = static_cast<double>(maxima.size());
  std::vector<double> t;
  t.reserve(maxima.size());
  double tsum = 0.0;
  double tabs_max = 0.0;
  for (double x : maxima) {
    if (x >= mu) return fit;
    const double ti = std::log(mu - x);
    t.push_back(ti);
    tsum += ti;
    tabs_max = std::max(tabs_max, std::fabs(ti));
  }
  auto psi = [&](double alpha) {
    const RefPowerSums ps = ref_power_sums(t, alpha);
    return m / alpha + tsum - m * ps.ratio;
  };
  double lo = opt.alpha_min;
  const double hi_cap =
      tabs_max > 1e-12 ? std::max(600.0 / tabs_max, 10.0) : opt.alpha_max;
  double hi = std::min(opt.alpha_max, hi_cap);
  const double psi_lo = psi(lo);
  const double psi_hi = psi(hi);
  double alpha_hat;
  if (psi_lo <= 0.0) {
    alpha_hat = lo;
  } else if (psi_hi >= 0.0) {
    alpha_hat = hi;
  } else {
    const auto r = math::brent_root(psi, lo, hi, 1e-10);
    alpha_hat = r.x;
    fit.converged = r.converged;
  }
  const RefPowerSums ps = ref_power_sums(t, alpha_hat);
  const double log_beta = std::log(m) - ps.log_s0;
  fit.alpha = alpha_hat;
  fit.beta = std::exp(log_beta);
  fit.log_likelihood =
      m * std::log(alpha_hat) + m * log_beta + (alpha_hat - 1.0) * tsum - m;
  if (alpha_hat == lo || alpha_hat == hi) fit.converged = false;
  return fit;
}

evt::WeibullMleResult ref_fit_weibull_mle(std::span<const double> maxima,
                                          const evt::WeibullMleOptions& opt) {
  evt::WeibullMleResult out;
  const double xmax = *std::max_element(maxima.begin(), maxima.end());
  const double xmin = *std::min_element(maxima.begin(), maxima.end());
  double spread = xmax - xmin;
  if (spread <= 0.0) {
    out.params = {opt.alpha_max, 1.0, xmax};
    out.converged = false;
    out.mu_at_lower_bound = true;
    return out;
  }
  int evals = 0;
  auto profile = [&](double mu) {
    ++evals;
    return ref_fixed_mu(maxima, mu, opt).log_likelihood;
  };

  const double lo_delta = opt.lo_frac * spread;
  const double hi_delta = opt.hi_frac * spread;
  const int n_grid = std::max(opt.grid_points, 8);
  const double log_lo = std::log(lo_delta);
  const double log_hi = std::log(hi_delta);
  int best_idx = 0;
  double best_ll = -std::numeric_limits<double>::infinity();
  std::vector<double> deltas(static_cast<std::size_t>(n_grid));
  for (int i = 0; i < n_grid; ++i) {
    const double ld =
        log_lo + (log_hi - log_lo) * static_cast<double>(i) / (n_grid - 1);
    deltas[static_cast<std::size_t>(i)] = std::exp(ld);
    const double ll = profile(xmax + deltas[static_cast<std::size_t>(i)]);
    if (ll > best_ll) {
      best_ll = ll;
      best_idx = i;
    }
  }
  out.mu_at_lower_bound = (best_idx == 0);
  out.mu_at_upper_bound = (best_idx == n_grid - 1);

  const int lo_i = std::max(best_idx - 1, 0);
  const int hi_i = std::min(best_idx + 1, n_grid - 1);
  auto neg_profile_logdelta = [&](double ld) {
    return -profile(xmax + std::exp(ld));
  };
  const auto gm = math::golden_minimize(
      neg_profile_logdelta, std::log(deltas[static_cast<std::size_t>(lo_i)]),
      std::log(deltas[static_cast<std::size_t>(hi_i)]), 1e-10, 200);

  double mu_hat = xmax + std::exp(gm.x);
  evt::FixedMuFit inner = ref_fixed_mu(maxima, mu_hat, opt);

  if (opt.ridge_tolerance > 0.0 &&
      (mu_hat - xmax) > opt.ridge_spread_factor * spread) {
    out.ridge_fallback = true;
    const double target = inner.log_likelihood - opt.ridge_tolerance;
    double lo_delta_x = deltas.front();
    double hi_delta_x = mu_hat - xmax;
    double prev_delta = deltas.front();
    for (double delta : deltas) {
      if (xmax + delta >= mu_hat) break;
      if (profile(xmax + delta) >= target) {
        lo_delta_x = prev_delta;
        hi_delta_x = delta;
        break;
      }
      prev_delta = delta;
    }
    double lo_ld = std::log(lo_delta_x);
    double hi_ld = std::log(hi_delta_x);
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo_ld + hi_ld);
      if (profile(xmax + std::exp(mid)) >= target) {
        hi_ld = mid;
      } else {
        lo_ld = mid;
      }
    }
    mu_hat = xmax + std::exp(hi_ld);
    inner = ref_fixed_mu(maxima, mu_hat, opt);
  }

  out.params.alpha = inner.alpha;
  out.params.beta = inner.beta;
  out.params.mu = mu_hat;
  out.log_likelihood = inner.log_likelihood;
  out.profile_evaluations = evals;
  out.alpha_below_two = inner.alpha <= 2.0;
  out.converged = inner.converged && !out.mu_at_lower_bound &&
                  (!out.mu_at_upper_bound || out.ridge_fallback);
  return out;
}

/// What a corpus family exercised and how far the new solver moved it.
struct Gate {
  int sets = 0;
  int ridge = 0;
  int lower_bound = 0;
  int flag_mismatches = 0;
  int moved_over_1e6 = 0;  ///< sets whose estimate moved by > 1e-6 relative
  std::vector<double> moved;  ///< per set: largest relative estimate change
  double ll_margin = std::numeric_limits<double>::infinity();  ///< min of
                          ///< (l_new - l_old) / (1 + |l_old|) over fits
  long long fits = 0;
  long long solves_new = 0;
  long long solves_old = 0;
  long long shape_evals = 0;
};

bool same_flags(const evt::WeibullMleResult& a,
                const evt::WeibullMleResult& b) {
  return a.converged == b.converged &&
         a.mu_at_lower_bound == b.mu_at_lower_bound &&
         a.mu_at_upper_bound == b.mu_at_upper_bound &&
         a.alpha_below_two == b.alpha_below_two &&
         a.ridge_fallback == b.ridge_fallback;
}

double relative_change(double got, double want) {
  if (got == want) return 0.0;
  return std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
}

/// Compares one production fit with the oracle's; returns the relative
/// change of the estimate.
double compare_fit(const mp::TailFitOutcome& got,
                   const evt::WeibullMleResult& want, double want_estimate,
                   bool& flags_same, Gate& gate) {
  const double ll_old = want.log_likelihood;
  const double margin =
      (got.mle.log_likelihood - ll_old) / (1.0 + std::fabs(ll_old));
  EXPECT_GE(margin, -1e-8) << "mu " << got.mle.params.mu << " vs "
                           << want.params.mu;
  gate.ll_margin = std::min(gate.ll_margin, margin);
  EXPECT_LE(got.mle.profile_evaluations, want.profile_evaluations);
  ++gate.fits;
  gate.solves_new += got.mle.profile_evaluations;
  gate.solves_old += want.profile_evaluations;
  gate.shape_evals += got.mle.shape_evaluations;
  flags_same = flags_same && same_flags(got.mle, want);
  return relative_change(got.estimate, want_estimate);
}

/// Fits `maxima` on the endpoint path and, for finite populations (and
/// every 4th streaming set), on the quantile path, against the oracle.
void check_set(const MaximaSet& maxima,
               std::optional<std::size_t> population, Gate& gate) {
  SCOPED_TRACE(::testing::Message() << "set " << gate.sets);
  const mp::HyperSampleOptions options;
  const auto& fitter = mp::default_tail_fitter();
  bool flags_same = true;

  evt::WeibullMleOptions stabilized = options.mle;
  stabilized.ridge_tolerance = options.endpoint_ridge_tolerance;
  const evt::WeibullMleResult want = ref_fit_weibull_mle(maxima, stabilized);
  const mp::TailFitOutcome got =
      fitter.fit(maxima, mp::TailFitContext{options, std::nullopt});
  double moved = compare_fit(got, want, want.params.mu, flags_same, gate);

  const std::size_t size = population.value_or(100000);
  if (population || gate.sets % 4 == 0) {
    const evt::WeibullMleResult raw =
        ref_fit_weibull_mle(maxima, options.mle);
    const mp::TailFitOutcome q =
        fitter.fit(maxima, mp::TailFitContext{options, size});
    const double want_q = mp::finite_population_estimate(raw.params, size);
    moved = std::max(moved, compare_fit(q, raw, want_q, flags_same, gate));
  }

  ++gate.sets;
  if (got.mle.ridge_fallback) ++gate.ridge;
  if (got.mle.mu_at_lower_bound) ++gate.lower_bound;
  if (!flags_same) ++gate.flag_mismatches;
  if (moved > 1e-6) ++gate.moved_over_1e6;
  gate.moved.push_back(moved);
}

/// Checks every set of a family: the per-set bounds (log-likelihood, the
/// 1e-4 ceiling on the estimate's move, no extra solves) hold on each.
Gate run_family(const std::string& name, const std::vector<MaximaSet>& sets,
                std::optional<std::size_t> population = std::nullopt) {
  Gate gate;
  for (const MaximaSet& maxima : sets) check_set(maxima, population, gate);
  std::vector<double> moved = gate.moved;
  std::sort(moved.begin(), moved.end());
  EXPECT_LE(moved.back(), 1e-4);
  std::printf(
      "%s: %d sets, %d ridge, %d lower-bound, %d flag mismatches; relative "
      "estimate change median %.2g, 99.9th pct %.2g, max %.2g (%d over "
      "1e-6); log-likelihood margin %.2g; per fit: profile solves %.1f -> "
      "%.1f, shape evaluations %.1f\n",
      name.c_str(), gate.sets, gate.ridge, gate.lower_bound, gate.flag_mismatches,
      moved[moved.size() / 2], moved[moved.size() * 999 / 1000],
      moved.back(), gate.moved_over_1e6, gate.ll_margin,
      static_cast<double>(gate.solves_old) / gate.fits,
      static_cast<double>(gate.solves_new) / gate.fits,
      static_cast<double>(gate.shape_evals) / gate.fits);
  return gate;
}

/// The whole corpus, one family at a time.
Gate run_corpus() {
  Gate all;
  auto fold = [&](const Gate& g) {
    all.sets += g.sets;
    all.flag_mismatches += g.flag_mismatches;
    all.moved_over_1e6 += g.moved_over_1e6;
  };
  fold(run_family("c432",
                  fit_corpus::zero_delay("c432", fit_corpus::kZeroC432, 11)));
  fold(run_family(
      "c7552", fit_corpus::zero_delay("c7552", fit_corpus::kZeroC7552, 12)));
  fold(run_family("loaded c1355", fit_corpus::loaded("c1355", 17),
                  fit_corpus::kLoadedPopulation));
  fold(run_family("loaded c2670", fit_corpus::loaded("c2670", 18),
                  fit_corpus::kLoadedPopulation));
  for (std::size_t i = 0; i < fit_corpus::kAnalyticShapes.size(); ++i) {
    const double alpha = fit_corpus::kAnalyticShapes[i];
    fold(run_family("analytic alpha " + std::to_string(alpha),
                    fit_corpus::analytic(alpha, 20 + i)));
  }
  fold(run_family("shape sweep",
                  fit_corpus::reversed_weibull(fit_corpus::kShapeSweep, 13,
                                               fit_corpus::shape_sweep())));
  fold(run_family("near-Gumbel",
                  fit_corpus::near_gumbel(fit_corpus::kNearGumbel, 14)));
  fold(run_family("lower bound",
                  fit_corpus::lower_bound(fit_corpus::kLowerBound, 15)));
  return all;
}

// The two rates are corpus properties: 99.9% of 6 400 sets leaves room for
// six outliers, which a 300-set family alone could not.
TEST(TailFitEquivalence, CorpusFlagsAndEstimatesAgree) {
  const Gate all = run_corpus();
  EXPECT_GE(all.sets, 6000);
  EXPECT_LE(all.flag_mismatches, all.sets / 1000);
  EXPECT_LE(all.moved_over_1e6, all.sets / 1000);
}

TEST(TailFitEquivalence, ZeroDelayC432HyperSamples) {
  const Gate gate = run_family(
      "c432", fit_corpus::zero_delay("c432", fit_corpus::kZeroC432, 11));
  EXPECT_GT(gate.ridge, 0);
  EXPECT_GT(gate.lower_bound, 0);
}

TEST(TailFitEquivalence, ZeroDelayC7552HyperSamples) {
  const Gate gate = run_family(
      "c7552", fit_corpus::zero_delay("c7552", fit_corpus::kZeroC7552, 12));
  EXPECT_GT(gate.ridge, 0);
  EXPECT_GT(gate.lower_bound, 0);
}

TEST(TailFitEquivalence, LoadedC1355Population) {
  const Gate gate = run_family("loaded c1355", fit_corpus::loaded("c1355", 17),
                             fit_corpus::kLoadedPopulation);
  EXPECT_GT(gate.lower_bound, 0);
}

TEST(TailFitEquivalence, LoadedC2670Population) {
  const Gate gate = run_family("loaded c2670", fit_corpus::loaded("c2670", 18),
                             fit_corpus::kLoadedPopulation);
  EXPECT_GT(gate.lower_bound, 0);
}

TEST(TailFitEquivalence, AnalyticReversedWeibullShapes) {
  for (std::size_t i = 0; i < fit_corpus::kAnalyticShapes.size(); ++i) {
    const double alpha = fit_corpus::kAnalyticShapes[i];
    run_family("analytic alpha " + std::to_string(alpha),
               fit_corpus::analytic(alpha, 20 + i));
  }
}

TEST(TailFitEquivalence, SyntheticReversedWeibull) {
  run_family("shape sweep",
           fit_corpus::reversed_weibull(fit_corpus::kShapeSweep, 13,
                                        fit_corpus::shape_sweep()));
}

TEST(TailFitEquivalence, NearGumbelTakesRidgeFallback) {
  const Gate gate = run_family(
      "near-Gumbel", fit_corpus::near_gumbel(fit_corpus::kNearGumbel, 14));
  EXPECT_GT(gate.ridge, 100);
}

TEST(TailFitEquivalence, PinnedAtLowerBound) {
  const Gate gate = run_family(
      "lower bound", fit_corpus::lower_bound(fit_corpus::kLowerBound, 15));
  EXPECT_GT(gate.lower_bound, 50);
}

TEST(TailFitEquivalence, EndpointPathCountsOneFitPerHyperSample) {
  auto& reg = mpe::util::MetricRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.enable(true);
  const mpe::stats::ReversedWeibull g(3.0, 1.0, 10.0);
  mpe::Rng rng(16);
  const mp::HyperSampleOptions options;
  const mp::TailFitContext endpoint{options, std::nullopt};
  for (int k = 0; k < 20; ++k) {
    std::vector<double> maxima(10);
    for (auto& x : maxima) x = g.sample(rng);
    const auto before = reg.snapshot();
    const mp::TailFitOutcome out =
        mp::default_tail_fitter().fit(maxima, endpoint);
    const auto after = reg.snapshot();
    EXPECT_EQ(after.value("mpe_mle_fits_total"),
              before.value("mpe_mle_fits_total") + 1.0);
    EXPECT_EQ(after.value("mpe_mle_profile_evals_total"),
              before.value("mpe_mle_profile_evals_total") +
                  out.mle.profile_evaluations);
    EXPECT_GE(out.mle.shape_evaluations, out.mle.profile_evaluations);
    EXPECT_EQ(after.value("mpe_mle_shape_evals_total"),
              before.value("mpe_mle_shape_evals_total") +
                  out.mle.shape_evaluations);
  }
  reg.enable(was_enabled);
}

}  // namespace
