#include "util/math.hpp"

#include <cmath>
#include <cstdlib>

#include "util/contracts.hpp"

namespace mpe::math {

double log_gamma(double x) {
#if defined(__GLIBC__) || defined(__linux__) || defined(__APPLE__)
  // lgamma_r returns the sign through its out-parameter instead of writing
  // the global signgam, so concurrent callers do not race.
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double log_beta(double a, double b) {
  MPE_EXPECTS(a > 0.0 && b > 0.0);
  return log_gamma(a) + log_gamma(b) - log_gamma(a + b);
}

namespace {

// Continued-fraction core of the incomplete beta (Numerical-Recipes-style
// modified Lentz algorithm). Converges quickly when x < (a+1)/(a+b+2).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 400;
  constexpr double kEps = 1e-15;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  MPE_EXPECTS(a > 0.0 && b > 0.0);
  MPE_EXPECTS(x >= 0.0 && x <= 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front =
      a * std::log(x) + b * std::log1p(-x) - log_beta(a, b);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

double erf_inv(double y) {
  MPE_EXPECTS(y > -1.0 && y < 1.0);
  if (y == 0.0) return 0.0;
  // Initial guess: Giles (2012) single-precision-quality polynomial, then
  // polish with Halley iterations on erf(x) - y = 0.
  double w = -std::log((1.0 - y) * (1.0 + y));
  double x;
  if (w < 6.25) {
    w -= 3.125;
    double p = -3.6444120640178196996e-21;
    p = -1.685059138182016589e-19 + p * w;
    p = 1.2858480715256400167e-18 + p * w;
    p = 1.115787767802518096e-17 + p * w;
    p = -1.333171662854620906e-16 + p * w;
    p = 2.0972767875968561637e-17 + p * w;
    p = 6.6376381343583238325e-15 + p * w;
    p = -4.0545662729752068639e-14 + p * w;
    p = -8.1519341976054721522e-14 + p * w;
    p = 2.6335093153082322977e-12 + p * w;
    p = -1.2975133253453532498e-11 + p * w;
    p = -5.4154120542946279317e-11 + p * w;
    p = 1.051212273321532285e-09 + p * w;
    p = -4.1126339803469836976e-09 + p * w;
    p = -2.9070369957882005086e-08 + p * w;
    p = 4.2347877827932403518e-07 + p * w;
    p = -1.3654692000834678645e-06 + p * w;
    p = -1.3882523362786468719e-05 + p * w;
    p = 0.0001867342080340571352 + p * w;
    p = -0.00074070253416626697512 + p * w;
    p = -0.0060336708714301490533 + p * w;
    p = 0.24015818242558961693 + p * w;
    p = 1.6536545626831027356 + p * w;
    x = p * y;
  } else if (w < 16.0) {
    w = std::sqrt(w) - 3.25;
    double p = 2.2137376921775787049e-09;
    p = 9.0756561938885390979e-08 + p * w;
    p = -2.7517406297064545428e-07 + p * w;
    p = 1.8239629214389227755e-08 + p * w;
    p = 1.5027403968909827627e-06 + p * w;
    p = -4.013867526981545969e-06 + p * w;
    p = 2.9234449089955446044e-06 + p * w;
    p = 1.2475304481671778723e-05 + p * w;
    p = -4.7318229009055733981e-05 + p * w;
    p = 6.8284851459573175448e-05 + p * w;
    p = 2.4031110387097893999e-05 + p * w;
    p = -0.0003550375203628474796 + p * w;
    p = 0.00095328937973738049703 + p * w;
    p = -0.0016882755560235047313 + p * w;
    p = 0.0024914420961078508066 + p * w;
    p = -0.0037512085075692412107 + p * w;
    p = 0.005370914553590063617 + p * w;
    p = 1.0052589676941592334 + p * w;
    p = 3.0838856104922207635 + p * w;
    x = p * y;
  } else {
    w = std::sqrt(w) - 5.0;
    double p = -2.7109920616438573243e-11;
    p = -2.5556418169965252055e-10 + p * w;
    p = 1.5076572693500548083e-09 + p * w;
    p = -3.7894654401267369937e-09 + p * w;
    p = 7.6157012080783393804e-09 + p * w;
    p = -1.4960026627149240478e-08 + p * w;
    p = 2.9147953450901080826e-08 + p * w;
    p = -6.7711997758452339498e-08 + p * w;
    p = 2.2900482228026654717e-07 + p * w;
    p = -9.9298272942317002539e-07 + p * w;
    p = 4.5260625972231537039e-06 + p * w;
    p = -1.9681778105531670567e-05 + p * w;
    p = 7.5995277030017761139e-05 + p * w;
    p = -0.00021503011930044477347 + p * w;
    p = -0.00013871931833623122026 + p * w;
    p = 1.0103004648645343977 + p * w;
    p = 4.8499064014085844221 + p * w;
    x = p * y;
  }
  // Two Halley refinement steps: f = erf(x) - y, f' = 2/sqrt(pi) exp(-x^2).
  constexpr double kTwoOverSqrtPi = 1.1283791670955126;
  for (int i = 0; i < 2; ++i) {
    const double err = std::erf(x) - y;
    const double deriv = kTwoOverSqrtPi * std::exp(-x * x);
    x -= err / (deriv + x * err);  // Halley: f / (f' + x*f) since f'' = -2x f'
  }
  return x;
}

double erfc_inv(double y) {
  MPE_EXPECTS(y > 0.0 && y < 2.0);
  return erf_inv(1.0 - y);
}

SolveResult brent_root(const std::function<double(double)>& f, double lo,
                       double hi, double xtol, int max_iter) {
  MPE_EXPECTS(lo <= hi);
  const double f_lo = f(lo);
  return brent_root(f, lo, hi, f_lo, f(hi), xtol, max_iter);
}

SolveResult brent_root(const std::function<double(double)>& f, double lo,
                       double hi, double f_lo, double f_hi, double xtol,
                       int max_iter) {
  MPE_EXPECTS(lo <= hi);
  SolveResult r;
  double a = lo, b = hi;
  double fa = f_lo, fb = f_hi;
  if (fa == 0.0) return {a, 0.0, 0, true};
  if (fb == 0.0) return {b, 0.0, 0, true};
  MPE_EXPECTS_MSG(fa * fb < 0.0, "brent_root requires a sign change");
  double c = a, fc = fa;
  double d = b - a, e = d;
  for (int iter = 1; iter <= max_iter; ++iter) {
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol1 = 2.0 * 2.2e-16 * std::fabs(b) + 0.5 * xtol;
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || fb == 0.0) {
      return {b, fb, iter, true};
    }
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      // Attempt inverse quadratic interpolation.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double q0 = fa / fc;
        const double r0 = fb / fc;
        p = s * (2.0 * xm * q0 * (q0 - r0) - (b - a) * (r0 - 1.0));
        q = (q0 - 1.0) * (r0 - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::fabs(p);
      const double min1 = 3.0 * xm * q - std::fabs(tol1 * q);
      const double min2 = std::fabs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    if (std::fabs(d) > tol1) {
      b += d;
    } else {
      b += (xm >= 0.0 ? tol1 : -tol1);
    }
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      e = b - a;
      d = e;
    }
    r.iterations = iter;
  }
  r.x = b;
  r.f = fb;
  r.converged = false;
  return r;
}

SolveResult golden_minimize(const std::function<double(double)>& f, double lo,
                            double hi, double xtol, int max_iter) {
  MPE_EXPECTS(lo <= hi);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  SolveResult r;
  for (int i = 1; i <= max_iter; ++i) {
    r.iterations = i;
    if ((b - a) < xtol * (std::fabs(a) + std::fabs(b) + 1.0)) {
      break;
    }
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  if (f1 < f2) {
    r.x = x1;
    r.f = f1;
  } else {
    r.x = x2;
    r.f = f2;
  }
  r.converged = true;
  return r;
}

bool bracket_minimum(const std::function<double(double)>& f, double& lo,
                     double& mid, double& hi, int max_expand) {
  double fl = f(lo), fm = f(mid), fh = f(hi);
  for (int i = 0; i < max_expand; ++i) {
    if (fm <= fl && fm <= fh) return true;
    if (fl < fm) {
      // Downhill to the left: shift the bracket left.
      hi = mid;
      fh = fm;
      mid = lo;
      fm = fl;
      lo = mid - 2.0 * (hi - mid);
      fl = f(lo);
    } else {
      hi = mid + 2.0 * (hi - mid);
      mid = 0.5 * (lo + hi);
      fm = f(mid);
      fh = f(hi);
    }
  }
  return fm <= fl && fm <= fh;
}

}  // namespace mpe::math
