// TailFitter — the engine's fit layer. The paper fits the m sample maxima
// with the reversed-Weibull MLE: circuit power has a finite endpoint, so the
// maxima fall in the reversed Weibull's domain of attraction and its mu is
// the maximum power. The interface keeps the fit a seam: one hyper-sample
// pipeline, and a fitter a caller may supply (tests, timing decorators).
//
// A fitter sees only the block maxima plus a small context (population
// size, the HyperSampleOptions); everything upstream (drawing, maxima
// formation, constant-sample short-circuit) and downstream (observed-max
// clamp, non-finite guard) is shared pipeline, identical for every fitter.
#pragma once

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
  /// Weibull-MLE diagnostics; a fitter that runs no MLE fills in what it
  /// can so tracing and tests stay uniform.
  evt::WeibullMleResult mle;
  bool degenerate = false;  ///< fit violates the fitter's quality conditions
};

/// Strategy interface: fit a tail law to the m sample maxima and report one
/// maximum estimate. Implementations must be stateless across calls (the
/// engine's participants invoke them concurrently) and must never
/// throw on hard data — flag `degenerate` instead.
class TailFitter {
 public:
  virtual ~TailFitter() = default;

  /// Stable identifier ("mle", ...): checkpoint fingerprints, trace events.
  virtual std::string_view name() const = 0;

  /// Fits `maxima` (m >= 3, at least two distinct values — degenerate
  /// shapes are short-circuited upstream).
  virtual TailFitOutcome fit(std::span<const double> maxima,
                             const TailFitContext& context) const = 0;
};

/// The paper's reversed-Weibull profile MLE ("mle"); what
/// estimate_max_power and a null EngineConfig::fitter resolve to.
const TailFitter& default_tail_fitter();

}  // namespace mpe::maxpower
