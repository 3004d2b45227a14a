// Confidence-interval machinery for the estimation pipeline:
//  * the normal-theory interval of Theorem 4 (known-variance form),
//  * the Student-t interval of Theorem 6 used by the iterative procedure,
//  * the stopping-rule evaluation (relative half-width vs epsilon).
#pragma once

#include <cstddef>
#include <span>

namespace mpe::evt {

/// A two-sided confidence interval with its half width.
struct ConfidenceInterval {
  double center = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double half_width = 0.0;
  double confidence = 0.0;  ///< the level l it was built for
};

/// Normal interval center ± u_l * sd / sqrt(n) (Theorem 4 / Eqn 3.5).
ConfidenceInterval normal_interval(double center, double sd, std::size_t n,
                                   double confidence);

/// The critical value t_{l,k-1} of the interval over k values, memoized
/// per thread for the last confidence asked for: bit-identical to
/// stats::StudentT(k - 1).two_sided_critical(confidence), which is a root
/// search the stopping rule would otherwise repeat after every accept.
/// Requires k >= 2.
double t_critical(std::size_t k, double confidence);

/// Student-t interval over a sample of hyper-sample estimates
/// (Theorem 6 / Eqn 3.8): mean ± t_{l,k-1} s / sqrt(k). Requires k >= 2.
ConfidenceInterval t_interval(std::span<const double> values,
                              double confidence);

/// The paper's convergence test: relative error bound
/// (t_{l,k-1} s / sqrt(k)) / mean <= epsilon. Returns the attained relative
/// half-width; the caller compares against epsilon.
double relative_half_width(const ConfidenceInterval& ci);

}  // namespace mpe::evt
