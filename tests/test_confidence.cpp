#include "evt/confidence.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/student_t.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace evt = mpe::evt;

TEST(NormalInterval, MatchesClosedForm) {
  // 90% two-sided: u = 1.6449; half width = u * 2 / sqrt(16) = 0.8224.
  const auto ci = evt::normal_interval(10.0, 2.0, 16, 0.90);
  EXPECT_DOUBLE_EQ(ci.center, 10.0);
  EXPECT_NEAR(ci.half_width, 1.6448536269514722 * 2.0 / 4.0, 1e-9);
  EXPECT_NEAR(ci.lower, 10.0 - ci.half_width, 1e-12);
  EXPECT_NEAR(ci.upper, 10.0 + ci.half_width, 1e-12);
  EXPECT_DOUBLE_EQ(ci.confidence, 0.90);
}

TEST(NormalInterval, ShrinksWithSampleSize) {
  const auto small = evt::normal_interval(5.0, 1.0, 10, 0.95);
  const auto large = evt::normal_interval(5.0, 1.0, 1000, 0.95);
  EXPECT_GT(small.half_width, large.half_width);
  EXPECT_NEAR(small.half_width / large.half_width, 10.0, 1e-9);
}

TEST(TInterval, MatchesManualComputation) {
  const std::vector<double> xs = {9.0, 10.0, 11.0, 10.0};
  // mean 10, s = sqrt(2/3), k = 4, t_{0.9,3} = 2.3534.
  const auto ci = evt::t_interval(xs, 0.90);
  EXPECT_DOUBLE_EQ(ci.center, 10.0);
  const double s = std::sqrt(2.0 / 3.0);
  EXPECT_NEAR(ci.half_width, 2.3534 * s / 2.0, 1e-3);
}

TEST(TInterval, WiderThanNormalAtSmallK) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const auto tci = evt::t_interval(xs, 0.95);
  const auto nci = evt::normal_interval(2.0, 1.0, 3, 0.95);
  EXPECT_GT(tci.half_width, nci.half_width);
}

TEST(TInterval, CoverageSimulation) {
  // Draw k=10 normals repeatedly; the 90% t interval should cover the true
  // mean close to 90% of the time.
  mpe::Rng rng(2024);
  const int reps = 4000;
  int covered = 0;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> xs(10);
    for (auto& x : xs) x = rng.normal(3.0, 2.0);
    const auto ci = evt::t_interval(xs, 0.90);
    if (ci.lower <= 3.0 && 3.0 <= ci.upper) ++covered;
  }
  EXPECT_NEAR(covered / static_cast<double>(reps), 0.90, 0.02);
}

TEST(RelativeHalfWidth, Computes) {
  evt::ConfidenceInterval ci;
  ci.center = 20.0;
  ci.half_width = 1.0;
  EXPECT_DOUBLE_EQ(evt::relative_half_width(ci), 0.05);
  ci.center = -20.0;
  EXPECT_DOUBLE_EQ(evt::relative_half_width(ci), 0.05);
}

TEST(TCritical, MemoIsBitIdenticalToStudentT) {
  // Every k is asked for twice per level: once computed, once from the
  // memo; the second round of levels starts each table over.
  const double levels[] = {0.8, 0.9, 0.95, 0.99};
  for (int round = 0; round < 2; ++round) {
    for (const double l : levels) {
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 2; k <= 500; ++k) {
          const double expected =
              mpe::stats::StudentT(static_cast<double>(k) - 1.0)
                  .two_sided_critical(l);
          ASSERT_EQ(evt::t_critical(k, l), expected)
              << "k=" << k << " l=" << l << " pass " << pass;
        }
      }
    }
  }
}

TEST(Confidence, RejectsBadInputs) {
  EXPECT_THROW(evt::normal_interval(0.0, -1.0, 5, 0.9),
               mpe::ContractViolation);
  EXPECT_THROW(evt::normal_interval(0.0, 1.0, 5, 1.0),
               mpe::ContractViolation);
  EXPECT_THROW(evt::t_interval(std::vector<double>{1.0}, 0.9),
               mpe::ContractViolation);
  EXPECT_THROW(evt::t_critical(1, 0.9), mpe::ContractViolation);
  EXPECT_THROW(evt::t_critical(5, 1.0), mpe::ContractViolation);
  evt::ConfidenceInterval zero;
  EXPECT_THROW(evt::relative_half_width(zero), mpe::ContractViolation);
}

}  // namespace
