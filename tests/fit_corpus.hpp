// Maxima sets the Weibull fit is tested on, shared by test_weibull_mle (the
// shape-evaluation budget) and test_tail_fit_equivalence (the equivalence
// gate against the earlier solver). Every family is a pure function of its
// seed, so both suites see the same sets.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/presets.hpp"
#include "maxpower/hyper_sample.hpp"
#include "sim/power_eval.hpp"
#include "stats/weibull.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"
#include "vectors/parallel_db.hpp"
#include "vectors/population.hpp"

namespace fit_corpus {

using MaximaSet = std::vector<double>;

/// Size of the loaded-delay populations, as the Table-1 benchmark builds
/// them.
inline constexpr std::size_t kLoadedPopulation = 8192;

inline bool all_equal(const MaximaSet& xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [&](double x) { return x == xs.front(); });
}

/// `count` hyper-samples (m = 10 block maxima of n = 30 units) drawn from
/// `pop` as the pipeline forms them. Sets whose maxima are all equal are
/// skipped: the pipeline short-circuits them before the fit.
inline std::vector<MaximaSet> hyper_sample_maxima(mpe::vec::Population& pop,
                                                  int count,
                                                  std::uint64_t seed) {
  const mpe::maxpower::HyperSampleOptions options;
  mpe::Rng rng(seed);
  std::vector<double> units(options.n * options.m);
  std::vector<MaximaSet> sets;
  while (static_cast<int>(sets.size()) < count) {
    pop.draw_batch(units, rng);
    MaximaSet maxima(options.m);
    for (std::size_t i = 0; i < options.m; ++i) {
      maxima[i] = *std::max_element(units.begin() + i * options.n,
                                    units.begin() + (i + 1) * options.n);
    }
    if (!all_equal(maxima)) sets.push_back(std::move(maxima));
  }
  return sets;
}

/// Hyper-sample maxima from a zero-delay streaming population of a preset.
inline std::vector<MaximaSet> zero_delay(const std::string& circuit,
                                         int count, std::uint64_t seed) {
  const auto nl = mpe::gen::build_preset(circuit, 1);
  mpe::sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = mpe::sim::DelayModel::kZero;
  mpe::sim::CyclePowerEvaluator eval(nl, eval_opt);
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mpe::vec::StreamingPopulation pop(gen, eval);
  return hyper_sample_maxima(pop, count, seed);
}

/// The finite loaded-delay population of a preset, built as the Table-1
/// benchmark builds it (activity >= 0.3 pairs, default fanout-loaded
/// inertial event simulation).
inline mpe::vec::FinitePopulation loaded_population(
    const std::string& circuit) {
  const auto nl = mpe::gen::build_preset(circuit, 1);
  const mpe::vec::HighActivityPairGenerator gen(nl.num_inputs(), 0.3);
  mpe::vec::ParallelPowerDbOptions db;
  db.population_size = kLoadedPopulation;
  db.seed = 1;
  db.threads = 2;
  return mpe::vec::build_power_database_parallel(
      nl, gen, mpe::sim::PowerEvalOptions{}, db);
}

/// m = 10 draws per set from `sample(rng, set_index)`.
template <typename Sample>
std::vector<MaximaSet> synthetic(int count, std::uint64_t seed,
                                 Sample sample) {
  mpe::Rng rng(seed);
  std::vector<MaximaSet> sets;
  while (static_cast<int>(sets.size()) < count) {
    MaximaSet maxima(10);
    const int k = static_cast<int>(sets.size());
    for (auto& x : maxima) x = sample(rng, k);
    if (!all_equal(maxima)) sets.push_back(std::move(maxima));
  }
  return sets;
}

/// Reversed-Weibull maxima with shapes cycling through `alphas`.
inline std::vector<MaximaSet> reversed_weibull(
    int count, std::uint64_t seed, const std::vector<double>& alphas) {
  return synthetic(count, seed, [&](mpe::Rng& rng, int k) {
    const double alpha = alphas[static_cast<std::size_t>(k) % alphas.size()];
    return mpe::stats::ReversedWeibull(alpha, 1.0, 10.0).sample(rng);
  });
}

/// Shapes from heavy (alpha 1.5) to light (alpha 8) bounded tails.
inline std::vector<double> shape_sweep() {
  std::vector<double> alphas;
  for (int k = 0; k < 27; ++k) alphas.push_back(1.5 + 0.25 * k);
  return alphas;
}

/// Gumbel maxima: the Weibull profile climbs toward mu -> infinity, so the
/// endpoint path takes the ridge fallback on most sets.
inline std::vector<MaximaSet> near_gumbel(int count, std::uint64_t seed) {
  return synthetic(count, seed, [](mpe::Rng& rng, int) {
    double u = rng.uniform();
    while (u == 0.0) u = rng.uniform();
    return 5.0 - std::log(-std::log(u));
  });
}

/// Shape below 1: the density is unbounded at the endpoint, so the profile
/// peaks at the smallest grid delta above max(x_i).
inline std::vector<MaximaSet> lower_bound(int count, std::uint64_t seed) {
  return reversed_weibull(count, seed, {0.3, 0.4, 0.5, 0.6, 0.7, 0.8});
}

/// Sizes and seeds of the corpus families, shared so the budget test and
/// the equivalence gate cover the same sets (6 400 in total).
inline constexpr int kZeroC432 = 1000;
inline constexpr int kZeroC7552 = 800;
inline constexpr int kLoadedEach = 1000;
inline constexpr int kAnalyticEach = 300;
inline constexpr int kShapeSweep = 600;
inline constexpr int kNearGumbel = 500;
inline constexpr int kLowerBound = 300;
inline const std::vector<double> kAnalyticShapes = {1.0, 2.0, 3.0, 5.0};

inline std::vector<MaximaSet> loaded(const std::string& circuit,
                                     std::uint64_t seed) {
  mpe::vec::FinitePopulation pop = loaded_population(circuit);
  return hyper_sample_maxima(pop, kLoadedEach, seed);
}

inline std::vector<MaximaSet> analytic(double alpha, std::uint64_t seed) {
  return reversed_weibull(kAnalyticEach, seed, {alpha});
}

/// Every family of the corpus, in one list.
inline std::vector<MaximaSet> full_corpus() {
  std::vector<MaximaSet> all;
  auto add = [&](std::vector<MaximaSet> sets) {
    for (auto& s : sets) all.push_back(std::move(s));
  };
  add(zero_delay("c432", kZeroC432, 11));
  add(zero_delay("c7552", kZeroC7552, 12));
  add(loaded("c1355", 17));
  add(loaded("c2670", 18));
  for (std::size_t i = 0; i < kAnalyticShapes.size(); ++i) {
    add(analytic(kAnalyticShapes[i], 20 + i));
  }
  add(reversed_weibull(kShapeSweep, 13, shape_sweep()));
  add(near_gumbel(kNearGumbel, 14));
  add(lower_bound(kLowerBound, 15));
  return all;
}

}  // namespace fit_corpus
