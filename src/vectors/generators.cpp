#include "vectors/generators.hpp"

#include "util/contracts.hpp"
#include "vectors/bit_lanes.hpp"

namespace mpe::vec {

namespace {

const std::uint64_t kHalf = Rng::bernoulli_threshold(0.5);

}  // namespace

void PairGenerator::generate_rows(Rng& rng, std::size_t count,
                                  PairRows& out, sim::SimdKernel) const {
  out.resize(width(), count);
  VectorPair pair;
  for (std::size_t k = 0; k < count; ++k) {
    generate_into(rng, pair);
    out.set_pair(k, pair);
  }
}

FixedDrawPairGenerator::FixedDrawPairGenerator(std::size_t width,
                                               BitRecipe recipe)
    : width_(width), recipe_(recipe) {
  MPE_EXPECTS(width >= 1);
}

void FixedDrawPairGenerator::generate_into(Rng& rng, VectorPair& out) const {
  fill_bernoulli(width_, recipe_.first_threshold, out.first, rng);
  if (recipe_.flips) {
    fill_flipped(out.first, recipe_.second_threshold, out.second, rng);
  } else {
    fill_bernoulli(width_, recipe_.second_threshold, out.second, rng);
  }
}

void FixedDrawPairGenerator::generate_rows(Rng& rng, std::size_t count,
                                           PairRows& out,
                                           sim::SimdKernel kernel) const {
  detail::draw_rows(recipe_, width_, rng, count, out, kernel);
}

UniformPairGenerator::UniformPairGenerator(std::size_t width)
    : FixedDrawPairGenerator(width, {kHalf, kHalf, false}) {}

std::string UniformPairGenerator::description() const {
  return "uniform pairs, width " + std::to_string(width());
}

HighActivityPairGenerator::HighActivityPairGenerator(std::size_t width,
                                                     double min_activity)
    : width_(width), min_activity_(min_activity) {
  MPE_EXPECTS(width >= 1);
  MPE_EXPECTS(min_activity >= 0.0 && min_activity < 1.0);
}

void HighActivityPairGenerator::generate_into(Rng& rng,
                                              VectorPair& out) const {
  // Rejection sampling. Uniform pairs have mean activity 0.5, so thresholds
  // up to ~0.45 accept quickly at realistic widths; guard against extreme
  // settings with a bounded retry count and a constructive fallback.
  for (int attempt = 0; attempt < 10'000; ++attempt) {
    fill_bernoulli(width_, kHalf, out.first, rng);
    fill_bernoulli(width_, kHalf, out.second, rng);
    if (out.activity() >= min_activity_) return;
  }
  // Fallback: force the activity by flipping exactly ceil(width*min) lines.
  fill_bernoulli(width_, kHalf, out.first, rng);
  out.second = out.first;
  const auto flips =
      static_cast<std::size_t>(min_activity_ * static_cast<double>(width_)) + 1;
  for (std::size_t f = 0; f < flips && f < width_; ++f) {
    std::size_t idx;
    do {
      idx = rng.below(width_);
    } while (out.second[idx] != out.first[idx]);
    out.second[idx] ^= 1;
  }
}

std::string HighActivityPairGenerator::description() const {
  return "high-activity pairs (>= " + std::to_string(min_activity_) +
         "), width " + std::to_string(width());
}

TransitionProbPairGenerator::TransitionProbPairGenerator(
    std::size_t width, double transition_prob, double p1)
    : FixedDrawPairGenerator(width,
                             {Rng::bernoulli_threshold(p1),
                              Rng::bernoulli_threshold(transition_prob),
                              true}),
      transition_prob_(transition_prob) {}

std::string TransitionProbPairGenerator::description() const {
  return "transition-prob " + std::to_string(transition_prob_) +
         " pairs, width " + std::to_string(width());
}

}  // namespace mpe::vec
