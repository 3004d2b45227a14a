#include "evt/confidence.hpp"

#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/normal.hpp"
#include "stats/student_t.hpp"
#include "util/contracts.hpp"

namespace mpe::evt {

ConfidenceInterval normal_interval(double center, double sd, std::size_t n,
                                   double confidence) {
  MPE_EXPECTS(sd >= 0.0);
  MPE_EXPECTS(n >= 1);
  MPE_EXPECTS(confidence > 0.0 && confidence < 1.0);
  const double u = stats::Normal::two_sided_critical(confidence);
  ConfidenceInterval ci;
  ci.center = center;
  ci.half_width = u * sd / std::sqrt(static_cast<double>(n));
  ci.lower = center - ci.half_width;
  ci.upper = center + ci.half_width;
  ci.confidence = confidence;
  return ci;
}

double t_critical(std::size_t k, double confidence) {
  MPE_EXPECTS(k >= 2);
  MPE_EXPECTS(confidence > 0.0 && confidence < 1.0);
  // A run asks for k = min_hyper_samples, +1, +2, ... at one confidence,
  // and so does the next run on the thread. Past kMaxMemoK (far beyond the
  // default 500-sample budget) values are computed, not kept.
  constexpr std::size_t kMaxMemoK = 4096;
  thread_local double memo_confidence = 0.0;
  thread_local std::vector<double> memo;  // by k; 0 = not computed yet
  if (k > kMaxMemoK) {
    return stats::StudentT(static_cast<double>(k) - 1.0)
        .two_sided_critical(confidence);
  }
  if (confidence != memo_confidence) {
    memo_confidence = confidence;
    memo.clear();
  }
  if (memo.size() <= k) memo.resize(k + 1, 0.0);
  if (memo[k] == 0.0) {
    memo[k] = stats::StudentT(static_cast<double>(k) - 1.0)
                  .two_sided_critical(confidence);
  }
  return memo[k];
}

ConfidenceInterval t_interval(std::span<const double> values,
                              double confidence) {
  MPE_EXPECTS_MSG(values.size() >= 2, "t interval needs at least two values");
  MPE_EXPECTS(confidence > 0.0 && confidence < 1.0);
  const auto k = static_cast<double>(values.size());
  const double mean = stats::mean(values);
  const double s = stats::stddev(values);
  ConfidenceInterval ci;
  ci.center = mean;
  ci.half_width = t_critical(values.size(), confidence) * s / std::sqrt(k);
  ci.lower = mean - ci.half_width;
  ci.upper = mean + ci.half_width;
  ci.confidence = confidence;
  return ci;
}

double relative_half_width(const ConfidenceInterval& ci) {
  MPE_EXPECTS_MSG(ci.center != 0.0, "relative width undefined at zero center");
  return std::fabs(ci.half_width / ci.center);
}

}  // namespace mpe::evt
