// The endpoint path fits each hyper-sample once, and a profile search never
// solves the same endpoint twice. This suite pins both against a verbatim
// reference of the earlier fit sequence: a raw fit_weibull_mle under
// raw_mle_options() whose result was discarded, then a ridge-stabilized
// refit, each re-solving the grid points in the ridge walk and the repeated
// bisection midpoints. Every field must match exactly (EXPECT_EQ), over
// zero-delay circuit hyper-samples, synthetic reversed-Weibull maxima,
// near-Gumbel maxima that take the ridge fallback, and maxima whose
// endpoint is pinned at the lower search bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "evt/weibull_mle.hpp"
#include "gen/presets.hpp"
#include "maxpower/hyper_sample.hpp"
#include "maxpower/tail_fitter.hpp"
#include "sim/power_eval.hpp"
#include "stats/weibull.hpp"
#include "util/math.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"
#include "vectors/population.hpp"

namespace {

namespace evt = mpe::evt;
namespace mp = mpe::maxpower;
namespace math = mpe::math;

// ---------------------------------------------------------------------------
// Reference: the profile MLE as it was before solves were reused.

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

/// Reference fit plus its evaluation accounting.
struct RefFit {
  evt::WeibullMleResult result;  ///< profile_evaluations = the old count
  int grid = 0;                  ///< grid solves
  int golden = 0;                ///< golden-section solves
  int walk = 0;                  ///< ridge-walk solves of grid endpoints
};

RefFit ref_fit_weibull_mle(std::span<const double> maxima,
                           const evt::WeibullMleOptions& opt) {
  RefFit ref;
  evt::WeibullMleResult& out = ref.result;
  const double xmax = *std::max_element(maxima.begin(), maxima.end());
  const double xmin = *std::min_element(maxima.begin(), maxima.end());
  double spread = xmax - xmin;
  if (spread <= 0.0) {
    out.params = {opt.alpha_max, 1.0, xmax};
    out.converged = false;
    out.mu_at_lower_bound = true;
    return ref;
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
  ref.grid = evals;
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
  ref.golden = evals - ref.grid;

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
      ++ref.walk;
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
  return ref;
}

/// The earlier WeibullMleFitter::fit on the endpoint path, kUseAnyway
/// policy: a raw fit, discarded, then the ridge-stabilized refit.
struct RefEndpoint {
  RefFit stabilized;
  double estimate = 0.0;
  double mu_hat = 0.0;
  bool degenerate = false;
};

RefEndpoint ref_endpoint_fit(std::span<const double> maxima,
                             const mp::HyperSampleOptions& options) {
  RefEndpoint ref;
  ref.stabilized = ref_fit_weibull_mle(maxima, options.mle);
  if (options.mle.ridge_tolerance <= 0.0 &&
      options.endpoint_ridge_tolerance > 0.0) {
    evt::WeibullMleOptions stabilized = options.mle;
    stabilized.ridge_tolerance = options.endpoint_ridge_tolerance;
    ref.stabilized = ref_fit_weibull_mle(maxima, stabilized);
  }
  ref.mu_hat = ref.stabilized.result.params.mu;
  ref.estimate = ref.mu_hat;
  const auto& mle = ref.stabilized.result;
  ref.degenerate = !mle.converged || mle.alpha_below_two;
  return ref;
}

void expect_same_mle(const evt::WeibullMleResult& got,
                     const evt::WeibullMleResult& want) {
  EXPECT_EQ(got.params.alpha, want.params.alpha);
  EXPECT_EQ(got.params.beta, want.params.beta);
  EXPECT_EQ(got.params.mu, want.params.mu);
  EXPECT_EQ(got.log_likelihood, want.log_likelihood);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.mu_at_lower_bound, want.mu_at_lower_bound);
  EXPECT_EQ(got.mu_at_upper_bound, want.mu_at_upper_bound);
  EXPECT_EQ(got.alpha_below_two, want.alpha_below_two);
  EXPECT_EQ(got.ridge_fallback, want.ridge_fallback);
}

/// What a corpus exercised, so each test can assert its intended coverage.
struct Coverage {
  int sets = 0;
  int ridge = 0;
  int lower_bound = 0;
};

/// Fits `maxima` through the production endpoint path and both reference
/// paths, and checks equality plus the evaluation accounting. Every 4th set
/// also checks the quantile path, whose single raw fit must match the
/// reference raw fit.
void check_maxima(const std::vector<double>& maxima, Coverage& cov) {
  SCOPED_TRACE(::testing::Message() << "set " << cov.sets);
  const mp::HyperSampleOptions options;
  const mp::TailFitContext endpoint{options, std::nullopt};
  const mp::TailFitOutcome got =
      mp::default_tail_fitter().fit(maxima, endpoint);
  const RefEndpoint want = ref_endpoint_fit(maxima, options);

  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.mu_hat, want.mu_hat);
  EXPECT_EQ(got.degenerate, want.degenerate);
  EXPECT_FALSE(got.used_pwm);
  expect_same_mle(got.mle, want.stabilized.result);

  // profile_evaluations counts solves actually computed, final solves
  // included. Off the ridge the final solve is the golden-section winner,
  // already computed, so the count is exactly grid + golden-section
  // evaluations, as before. On the ridge the walk reads grid values instead
  // of solving them again, and the bisection stops once its midpoint can no
  // longer move; only the final solve at the bisected endpoint may be new.
  const RefFit& ref = want.stabilized;
  if (!got.mle.ridge_fallback) {
    EXPECT_EQ(got.mle.profile_evaluations, ref.grid + ref.golden);
    EXPECT_EQ(got.mle.profile_evaluations, ref.result.profile_evaluations);
  } else {
    EXPECT_GE(ref.walk, 1);
    EXPECT_LE(got.mle.profile_evaluations,
              ref.result.profile_evaluations - ref.walk + 1);
    EXPECT_LE(got.mle.profile_evaluations, ref.result.profile_evaluations);
    EXPECT_GT(got.mle.profile_evaluations, ref.grid + ref.golden);
  }

  if (cov.sets % 4 == 0) {
    const mp::TailFitContext quantile{options, std::size_t{100000}};
    const mp::TailFitOutcome q =
        mp::default_tail_fitter().fit(maxima, quantile);
    const RefFit raw = ref_fit_weibull_mle(maxima, options.mle);
    expect_same_mle(q.mle, raw.result);
    EXPECT_EQ(q.mle.profile_evaluations, raw.result.profile_evaluations);
    EXPECT_EQ(q.estimate,
              mp::finite_population_estimate(raw.result.params, 100000,
                                             options.n, options.quantile_mode));
  }

  ++cov.sets;
  if (got.mle.ridge_fallback) ++cov.ridge;
  if (got.mle.mu_at_lower_bound) ++cov.lower_bound;
}

bool all_equal(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [&](double x) { return x == xs.front(); });
}

/// Hyper-sample maxima (m = 10 blocks of n = 30 units) from a zero-delay
/// streaming population of a preset circuit, as the pipeline forms them.
Coverage run_circuit_corpus(const std::string& circuit, int count,
                            std::uint64_t seed) {
  const auto nl = mpe::gen::build_preset(circuit, 1);
  mpe::sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = mpe::sim::DelayModel::kZero;
  mpe::sim::CyclePowerEvaluator eval(nl, eval_opt);
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mpe::vec::StreamingPopulation pop(gen, eval);
  const mp::HyperSampleOptions options;
  mpe::Rng rng(seed);
  std::vector<double> units(options.n * options.m);
  Coverage cov;
  while (cov.sets < count) {
    pop.draw_batch(units, rng);
    std::vector<double> maxima(options.m);
    for (std::size_t i = 0; i < options.m; ++i) {
      maxima[i] = *std::max_element(units.begin() + i * options.n,
                                    units.begin() + (i + 1) * options.n);
    }
    if (all_equal(maxima)) continue;  // short-circuited before the fit
    check_maxima(maxima, cov);
  }
  return cov;
}

/// m = 10 draws per set from `sample`, which maps a uniform draw to a value.
template <typename Sample>
Coverage run_synthetic_corpus(int count, std::uint64_t seed, Sample sample) {
  mpe::Rng rng(seed);
  Coverage cov;
  while (cov.sets < count) {
    std::vector<double> maxima(10);
    for (auto& x : maxima) x = sample(rng, cov.sets);
    if (all_equal(maxima)) continue;
    check_maxima(maxima, cov);
  }
  return cov;
}

TEST(TailFitEquivalence, ZeroDelayC432HyperSamples) {
  const Coverage cov = run_circuit_corpus("c432", 500, 11);
  EXPECT_EQ(cov.sets, 500);
  EXPECT_GT(cov.ridge, 0);
  EXPECT_GT(cov.lower_bound, 0);
}

TEST(TailFitEquivalence, ZeroDelayC7552HyperSamples) {
  const Coverage cov = run_circuit_corpus("c7552", 400, 12);
  EXPECT_EQ(cov.sets, 400);
  EXPECT_GT(cov.ridge, 0);
  EXPECT_GT(cov.lower_bound, 0);
}

TEST(TailFitEquivalence, SyntheticReversedWeibull) {
  // Shapes from heavy (alpha 1.5) to light (alpha 8) bounded tails.
  const Coverage cov = run_synthetic_corpus(
      600, 13, [](mpe::Rng& rng, int k) {
        const double alpha = 1.5 + 0.25 * static_cast<double>(k % 27);
        const mpe::stats::ReversedWeibull g(alpha, 1.0, 10.0);
        return g.sample(rng);
      });
  EXPECT_EQ(cov.sets, 600);
}

TEST(TailFitEquivalence, NearGumbelTakesRidgeFallback) {
  // Gumbel maxima: the Weibull profile climbs toward mu -> infinity, so the
  // endpoint path takes the ridge fallback on most sets.
  const Coverage cov = run_synthetic_corpus(
      400, 14, [](mpe::Rng& rng, int) {
        double u = rng.uniform();
        while (u == 0.0) u = rng.uniform();
        return 5.0 - std::log(-std::log(u));
      });
  EXPECT_EQ(cov.sets, 400);
  EXPECT_GT(cov.ridge, 100);
}

TEST(TailFitEquivalence, PinnedAtLowerBound) {
  // Shape below 1: the density is unbounded at the endpoint, so the profile
  // peaks at the smallest grid delta above max(x_i).
  const Coverage cov = run_synthetic_corpus(
      200, 15, [](mpe::Rng& rng, int k) {
        const double alpha = 0.3 + 0.1 * static_cast<double>(k % 6);
        const mpe::stats::ReversedWeibull g(alpha, 1.0, 10.0);
        return g.sample(rng);
      });
  EXPECT_EQ(cov.sets, 200);
  EXPECT_GT(cov.lower_bound, 50);
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
    const double before = reg.snapshot().value("mpe_mle_fits_total");
    const double evals_before =
        reg.snapshot().value("mpe_mle_profile_evals_total");
    const mp::TailFitOutcome out =
        mp::default_tail_fitter().fit(maxima, endpoint);
    EXPECT_EQ(reg.snapshot().value("mpe_mle_fits_total"), before + 1.0);
    EXPECT_EQ(reg.snapshot().value("mpe_mle_profile_evals_total"),
              evals_before + out.mle.profile_evaluations);
  }
  reg.enable(was_enabled);
}

}  // namespace
