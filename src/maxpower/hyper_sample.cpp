#include "maxpower/hyper_sample.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "maxpower/tail_fitter.hpp"
#include "maxpower/unit_source.hpp"
#include "stats/weibull.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace mpe::maxpower {

double finite_population_estimate(const stats::WeibullParams& params,
                                  std::size_t v) {
  MPE_EXPECTS(v >= 2);
  const stats::ReversedWeibull g(params);
  return g.quantile(1.0 - 1.0 / static_cast<double>(v));
}

namespace {

/// Hyper-sample outcome metrics (thread-safe; the engine's participants
/// draw concurrently). Catalog in
/// docs/OBSERVABILITY.md.
struct HyperMetrics {
  util::Counter draws;
  util::Counter invalid;
  util::Counter degenerate;
  util::Counter constant;
  util::Counter nonfinite_units;

  HyperMetrics() {
    auto& reg = util::MetricRegistry::global();
    draws = reg.counter("mpe_hyper_draws_total");
    invalid = reg.counter("mpe_hyper_invalid_total");
    degenerate = reg.counter("mpe_hyper_degenerate_total");
    constant = reg.counter("mpe_hyper_constant_sample_total");
    nonfinite_units = reg.counter("mpe_hyper_nonfinite_units_total");
  }
};

void record_hyper(const HyperSampleResult& out) {
  static HyperMetrics m;
  m.draws.inc();
  if (!out.valid) m.invalid.inc();
  if (out.degenerate) m.degenerate.inc();
  if (out.constant_sample) m.constant.inc();
  if (out.nonfinite_units > 0) m.nonfinite_units.inc(out.nonfinite_units);
}

}  // namespace

HyperSampleResult draw_hyper_sample(UnitSource& source,
                                    const HyperSampleOptions& options,
                                    const TailFitter& fitter, Rng& rng) {
  MPE_EXPECTS(options.n >= 2);
  MPE_EXPECTS(options.m >= 3);

  HyperSampleResult out;
  // One batched pull for all n*m units: fill() consumes the RNG in scalar
  // order, so the maxima are identical to per-unit draws, but batch-capable
  // sources (compiled-tape streaming, finite index sampling) amortize their
  // per-unit cost.
  std::vector<double> units(options.n * options.m);
  source.fill(units, rng);
  out.units_used = options.n * options.m;

  // Block maxima over the finite draws only: a NaN or Inf unit must never
  // reach the fit (Inf would poison the estimate outright; NaN's comparison
  // behavior silently depends on its position in the block). A sample with
  // no finite unit at all leaves the hyper-sample invalid — the estimator
  // discards it rather than fabricating a value.
  std::vector<double> maxima;
  maxima.reserve(options.m);
  double overall_max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < options.m; ++i) {
    const std::size_t base = i * options.n;
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < options.n; ++j) {
      const double u = units[base + j];
      if (!std::isfinite(u)) {
        ++out.nonfinite_units;
        continue;
      }
      best = std::max(best, u);
    }
    if (!std::isfinite(best)) {
      out.valid = false;
      continue;
    }
    overall_max = std::max(overall_max, best);
    maxima.push_back(best);
  }
  if (!out.valid) {
    out.degenerate = true;
    out.sample_max = std::isfinite(overall_max) ? overall_max : 0.0;
    out.estimate = out.sample_max;
    record_hyper(out);
    return out;
  }
  out.sample_max = overall_max;

  // A constant sample (all maxima equal — e.g. a stuck-at population) has
  // zero spread: the 3-parameter likelihood is undefined, so skip the fit
  // and report the common value, flagged degenerate.
  const auto [lo_it, hi_it] = std::minmax_element(maxima.begin(), maxima.end());
  if (*lo_it == *hi_it) {
    out.constant_sample = true;
    out.degenerate = true;
    out.mle.params.mu = *hi_it;
    out.mu_hat = *hi_it;
    out.estimate = *hi_it;
    record_hyper(out);
    return out;
  }

  // Fit layer: the strategy sees only the maxima and the fit context.
  const TailFitContext context{options, source.population_size()};
  const TailFitOutcome fit = fitter.fit(maxima, context);
  out.estimate = fit.estimate;
  out.mu_hat = fit.mu_hat;
  out.mle = fit.mle;
  out.degenerate = fit.degenerate;

  // The estimate can never be below the best unit actually observed.
  out.estimate = std::max(out.estimate, overall_max);
  // Last-resort guard: whatever path produced the estimate, a non-finite
  // value must not leave this function — degrade to the observed maximum
  // (a valid lower bound) and flag the fit.
  if (!std::isfinite(out.estimate)) {
    out.estimate = overall_max;
    out.degenerate = true;
  }
  record_hyper(out);
  return out;
}

HyperSampleResult draw_hyper_sample(vec::Population& population,
                                    const HyperSampleOptions& options,
                                    Rng& rng) {
  PopulationUnitSource source(population);
  return draw_hyper_sample(source, options, default_tail_fitter(), rng);
}

}  // namespace mpe::maxpower
