// The fingerprint's field list: one visitor enumerates every scalar field
// of EstimatorOptions with its canonical name and whether it is part of the
// checkpoint fingerprint. run_fingerprint() walks this list, so an option
// added here enters the fingerprint in one place, and test_checkpoint pins
// the inclusion/exclusion semantics.
//
// Fingerprinted fields are everything that shapes the value sequence of a
// run. Visited but deliberately NOT fingerprinted: budget fields —
// max_hyper_samples and checkpoint_every_k — because extending a budget is
// the point of resuming. Not visited at all (process-local wiring with no
// value to fingerprint): control, tracer, checkpoint_path.
#pragma once

#include <cstdint>

#include "maxpower/estimator.hpp"

namespace mpe::maxpower {

/// Walks every scalar field of `o`. The visitor provides:
///   v.number(name, double-ref, fingerprinted)
///   v.integer(name, size_t-or-int-ref, fingerprinted)
///   v.flag(name, bool-ref, fingerprinted)
///   v.enumeration(name, enum-ref, fingerprinted)
/// Field order is the canonical fingerprint order — do not reorder, or
/// every existing checkpoint fingerprint changes.
template <typename Visitor>
void visit_estimator_options(const EstimatorOptions& o, Visitor&& v) {
  v.number("epsilon", o.epsilon, true);
  v.number("confidence", o.confidence, true);
  v.enumeration("interval", o.interval, true);
  v.integer("min_hyper", o.min_hyper_samples, true);
  v.integer("max_redraws", o.max_redraws, true);
  v.integer("n", o.hyper.n, true);
  v.integer("m", o.hyper.m, true);
  v.flag("finite_correction", o.hyper.finite_correction, true);
  // Only the paper quantile (mode 0) is left; its slot keeps old prints.
  v.integer("quantile_mode", std::uint64_t{0}, true);
  v.enumeration("degenerate_policy", o.hyper.degenerate_policy, true);
  v.number("endpoint_ridge_tolerance", o.hyper.endpoint_ridge_tolerance,
           true);
  v.number("mle.lo_frac", o.hyper.mle.lo_frac, true);
  v.number("mle.hi_frac", o.hyper.mle.hi_frac, true);
  v.integer("mle.grid_points", o.hyper.mle.grid_points, true);
  v.number("mle.alpha_min", o.hyper.mle.alpha_min, true);
  v.number("mle.alpha_max", o.hyper.mle.alpha_max, true);
  v.number("mle.ridge_spread_factor", o.hyper.mle.ridge_spread_factor, true);
  v.number("mle.ridge_tolerance", o.hyper.mle.ridge_tolerance, true);
  // Budget fields: never fingerprinted (a resumed run may raise them).
  v.integer("max_hyper_samples", o.max_hyper_samples, false);
  v.integer("checkpoint_every_k", o.checkpoint_every_k, false);
}

}  // namespace mpe::maxpower
