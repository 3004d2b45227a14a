#include "maxpower/hyper_sample.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/weibull.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;

mpe::vec::FinitePopulation weibull_population(std::size_t size,
                                              std::uint64_t seed,
                                              double alpha = 3.0,
                                              double mu = 10.0) {
  const mpe::stats::ReversedWeibull g(alpha, 1.0, mu);
  mpe::Rng rng(seed);
  std::vector<double> vals(size);
  for (auto& v : vals) v = g.sample(rng);
  return mpe::vec::FinitePopulation(std::move(vals), "synthetic weibull");
}

TEST(FinitePopulationEstimate, PaperTailQuantile) {
  const mpe::stats::WeibullParams p{3.0, 1.0, 10.0};
  const mpe::stats::ReversedWeibull g(p);
  const double est = mp::finite_population_estimate(p, 100000);
  EXPECT_NEAR(est, g.quantile(1.0 - 1e-5), 1e-12);
  EXPECT_LT(est, p.mu);
}

TEST(HyperSample, UsesExactlyNmUnits) {
  auto pop = weibull_population(20000, 1);
  mp::HyperSampleOptions opt;
  mpe::Rng rng(2);
  const auto hs = mp::draw_hyper_sample(pop, opt, rng);
  EXPECT_EQ(hs.units_used, 300u);
}

TEST(HyperSample, EstimateNearTrueMaximum) {
  auto pop = weibull_population(50000, 3);
  mp::HyperSampleOptions opt;
  mpe::Rng rng(4);
  double sum = 0.0;
  const int reps = 60;
  for (int r = 0; r < reps; ++r) {
    sum += mp::draw_hyper_sample(pop, opt, rng).estimate;
  }
  const double mean_est = sum / reps;
  EXPECT_NEAR(mean_est, pop.true_max(), 0.08 * pop.true_max());
}

TEST(HyperSample, EstimateAtLeastObservedMax) {
  auto pop = weibull_population(5000, 5);
  mp::HyperSampleOptions opt;
  mpe::Rng rng(6);
  for (int r = 0; r < 20; ++r) {
    const auto hs = mp::draw_hyper_sample(pop, opt, rng);
    EXPECT_GE(hs.estimate, hs.sample_max);
  }
}

TEST(HyperSample, FiniteCorrectionReducesEstimate) {
  // mu-hat (infinite-population endpoint) >= finite-population quantile,
  // comparing on identical (raw) fits.
  auto pop = weibull_population(20000, 7);
  mp::HyperSampleOptions with;
  mp::HyperSampleOptions without;
  without.finite_correction = false;
  without.endpoint_ridge_tolerance = 0.0;  // same raw fit as the other arm
  mpe::Rng r1(8), r2(8);
  double sum_with = 0.0, sum_without = 0.0;
  for (int r = 0; r < 40; ++r) {
    sum_with += mp::draw_hyper_sample(pop, with, r1).estimate;
    sum_without += mp::draw_hyper_sample(pop, without, r2).estimate;
  }
  EXPECT_LT(sum_with, sum_without);
}

TEST(HyperSample, FiniteCorrectionFixesUpwardBias) {
  // The paper's Section 3.4: without the correction the *raw* MLE endpoint
  // is biased high relative to the finite population's true max; with it,
  // the mean lands near the truth. Use the raw MLE (ridge stabilization
  // off) to isolate the effect the paper describes.
  auto pop = weibull_population(10000, 9);
  mp::HyperSampleOptions with;
  with.mle.ridge_tolerance = 0.0;
  mp::HyperSampleOptions without;
  without.mle.ridge_tolerance = 0.0;
  without.endpoint_ridge_tolerance = 0.0;  // raw mu-hat, as in the paper
  without.finite_correction = false;
  mpe::Rng r1(10), r2(10);
  double sum_with = 0.0, sum_without = 0.0;
  const int reps = 120;
  for (int r = 0; r < reps; ++r) {
    sum_with += mp::draw_hyper_sample(pop, with, r1).estimate;
    sum_without += mp::draw_hyper_sample(pop, without, r2).estimate;
  }
  const double bias_with = sum_with / reps - pop.true_max();
  const double bias_without = sum_without / reps - pop.true_max();
  EXPECT_GT(bias_without, 0.0);  // uncorrected: biased high
  EXPECT_LT(std::fabs(bias_with), std::fabs(bias_without));
}

TEST(HyperSample, LargerNSharpensSampleMaxima) {
  auto pop = weibull_population(50000, 11);
  mp::HyperSampleOptions n30;
  mp::HyperSampleOptions n100;
  n100.n = 100;
  mpe::Rng r1(12), r2(12);
  double s30 = 0.0, s100 = 0.0;
  for (int r = 0; r < 30; ++r) {
    s30 += mp::draw_hyper_sample(pop, n30, r1).sample_max;
    s100 += mp::draw_hyper_sample(pop, n100, r2).sample_max;
  }
  EXPECT_GT(s100, s30);  // maxima of bigger samples sit higher
}

TEST(HyperSample, AllEqualMaximaYieldFlaggedConstantSample) {
  // A stuck-at population: every unit is 5.0, so all m maxima coincide and
  // the 3-parameter likelihood is undefined. The draw must report the common
  // value, flagged, instead of throwing or returning NaN.
  mpe::vec::FinitePopulation pop(std::vector<double>(64, 5.0), "stuck");
  mp::HyperSampleOptions opt;
  mpe::Rng rng(2);
  const auto hs = mp::draw_hyper_sample(pop, opt, rng);
  EXPECT_TRUE(hs.valid);
  EXPECT_TRUE(hs.constant_sample);
  EXPECT_TRUE(hs.degenerate);
  EXPECT_EQ(hs.estimate, 5.0);
  EXPECT_EQ(hs.sample_max, 5.0);
}

TEST(HyperSample, MinimumMOfThreeProducesFiniteEstimate) {
  auto pop = weibull_population(5000, 19);
  mp::HyperSampleOptions opt;
  opt.m = 3;  // the smallest legal hyper-sample
  opt.n = 2;
  mpe::Rng rng(20);
  const auto hs = mp::draw_hyper_sample(pop, opt, rng);
  EXPECT_EQ(hs.units_used, 6u);
  EXPECT_TRUE(std::isfinite(hs.estimate));
  EXPECT_GE(hs.estimate, hs.sample_max);
}

TEST(HyperSample, NanUnitsAreExcludedFromMaxima) {
  mpe::Rng gen(21);
  std::vector<double> vals(4000);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    // Every tenth unit poisoned; plenty of finite units per sample remain.
    vals[i] = (i % 10 == 9) ? std::numeric_limits<double>::quiet_NaN()
                            : gen.uniform(1.0, 9.0);
  }
  mpe::vec::FinitePopulation pop(std::move(vals), "partly poisoned");
  mp::HyperSampleOptions opt;
  mpe::Rng rng(22);
  const auto hs = mp::draw_hyper_sample(pop, opt, rng);
  EXPECT_TRUE(hs.valid);
  EXPECT_GT(hs.nonfinite_units, 0u);
  EXPECT_TRUE(std::isfinite(hs.estimate));
  EXPECT_TRUE(std::isfinite(hs.sample_max));
}

TEST(HyperSample, AllNanPopulationIsInvalidNotFatal) {
  mpe::vec::FinitePopulation pop(
      std::vector<double>(64, std::numeric_limits<double>::quiet_NaN()),
      "all nan");
  mp::HyperSampleOptions opt;
  mpe::Rng rng(23);
  const auto hs = mp::draw_hyper_sample(pop, opt, rng);
  EXPECT_FALSE(hs.valid);
  EXPECT_TRUE(hs.degenerate);
  EXPECT_TRUE(std::isfinite(hs.estimate));
  EXPECT_EQ(hs.nonfinite_units, hs.units_used);
}

TEST(HyperSample, ContractChecks) {
  auto pop = weibull_population(1000, 13);
  mp::HyperSampleOptions bad;
  bad.m = 2;
  mpe::Rng rng(14);
  EXPECT_THROW(mp::draw_hyper_sample(pop, bad, rng), mpe::ContractViolation);
  bad = {};
  bad.n = 1;
  EXPECT_THROW(mp::draw_hyper_sample(pop, bad, rng), mpe::ContractViolation);
}

TEST(FinitePopulationEstimate, ContractChecks) {
  const mpe::stats::WeibullParams p{3.0, 1.0, 10.0};
  EXPECT_THROW(mp::finite_population_estimate(p, 1), mpe::ContractViolation);
}

}  // namespace
