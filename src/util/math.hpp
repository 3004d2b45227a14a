// Special functions and 1-D numerical routines used by the statistics and
// extreme-value layers. Everything here is implemented from scratch (no
// external math library): regularized incomplete beta, inverse error
// function, safeguarded root finding and minimization.
#pragma once

#include <functional>
#include <limits>

namespace mpe::math {

/// Machine-independent "tiny" used to guard divisions in continued fractions.
inline constexpr double kTiny = 1e-300;

/// Natural log of |Gamma(x)|. Unlike std::lgamma, this is thread-safe:
/// glibc's lgamma writes the process-global `signgam`, which is a data race
/// when independent estimation runs share a process (the mpe_server
/// executor pool). All in-tree code must call this instead of std::lgamma.
double log_gamma(double x);

/// Natural log of the beta function B(a, b).
double log_beta(double a, double b);

/// Regularized incomplete beta function I_x(a, b) for x in [0, 1], a, b > 0.
/// Evaluated with the Lentz continued fraction; accurate to ~1e-14.
double incomplete_beta(double a, double b, double x);

/// Inverse of the error function: erf(erf_inv(y)) == y for y in (-1, 1).
/// Rational initial approximation refined with two Halley steps.
double erf_inv(double y);

/// Inverse of the complementary error function on (0, 2).
double erfc_inv(double y);

/// Result of a root-finding or minimization run.
struct SolveResult {
  double x = std::numeric_limits<double>::quiet_NaN();
  double f = std::numeric_limits<double>::quiet_NaN();
  int iterations = 0;
  bool converged = false;
};

/// Find a root of `f` in [lo, hi] with Brent's method. Requires
/// f(lo) and f(hi) to have opposite signs (or one of them to be zero).
SolveResult brent_root(const std::function<double(double)>& f, double lo,
                       double hi, double xtol = 1e-12, int max_iter = 200);

/// brent_root for a caller that already holds f(lo) and f(hi): the solve
/// starts from them instead of evaluating both endpoints again.
SolveResult brent_root(const std::function<double(double)>& f, double lo,
                       double hi, double f_lo, double f_hi,
                       double xtol = 1e-12, int max_iter = 200);

/// Minimize a unimodal 1-D function on [lo, hi] by golden-section search.
SolveResult golden_minimize(const std::function<double(double)>& f, double lo,
                            double hi, double xtol = 1e-10,
                            int max_iter = 300);

/// Expand a bracket [lo, hi] downhill until f(mid) < min(f(lo), f(hi)) or the
/// expansion limit is reached. Returns true and fills the bracket on success.
bool bracket_minimum(const std::function<double(double)>& f, double& lo,
                     double& mid, double& hi, int max_expand = 60);

}  // namespace mpe::math
