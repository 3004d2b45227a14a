#include "vectors/markov.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace mpe::vec {

MarkovPairGenerator::MarkovPairGenerator(std::vector<double> p01,
                                         std::vector<double> p10)
    : p01_(std::move(p01)), p10_(std::move(p10)) {
  MPE_EXPECTS(!p01_.empty());
  MPE_EXPECTS(p01_.size() == p10_.size());
  for (std::size_t i = 0; i < p01_.size(); ++i) {
    MPE_EXPECTS(p01_[i] >= 0.0 && p01_[i] <= 1.0);
    MPE_EXPECTS(p10_[i] >= 0.0 && p10_[i] <= 1.0);
    MPE_EXPECTS_MSG(p01_[i] + p10_[i] > 0.0,
                    "absorbing line: p01 + p10 must be positive");
    thresholds_.push_back({Rng::bernoulli_threshold(stationary_one(i)),
                           Rng::bernoulli_threshold(p01_[i]),
                           Rng::bernoulli_threshold(p10_[i])});
  }
}

MarkovPairGenerator::MarkovPairGenerator(std::size_t width, double p01,
                                         double p10)
    : MarkovPairGenerator(std::vector<double>(width, p01),
                          std::vector<double>(width, p10)) {}

double MarkovPairGenerator::stationary_one(std::size_t line) const {
  MPE_EXPECTS(line < p01_.size());
  return p01_[line] / (p01_[line] + p10_[line]);
}

double MarkovPairGenerator::transition_prob(std::size_t line) const {
  const double p1 = stationary_one(line);
  return (1.0 - p1) * p01_[line] + p1 * p10_[line];
}

void MarkovPairGenerator::generate_into(Rng& rng, VectorPair& out) const {
  // Local copy of the generator and raw pointers: see fill_bernoulli().
  const std::size_t width = thresholds_.size();
  out.first.resize(width);
  out.second.resize(width);
  std::uint8_t* first = out.first.data();
  std::uint8_t* second = out.second.data();
  const Thresholds* line = thresholds_.data();
  Rng r = rng;
  for (std::size_t i = 0; i < width; ++i) {
    const bool cur = r.bernoulli_below(line[i].one);
    first[i] = cur;
    second[i] = cur ^ r.bernoulli_below(cur ? line[i].fall : line[i].rise);
  }
  rng = r;
}

std::string MarkovPairGenerator::description() const {
  return "Markov-chain pairs, width " + std::to_string(width());
}

CorrelatedPairGenerator::CorrelatedPairGenerator(
    std::vector<std::size_t> group_of, std::vector<double> group_event_prob,
    double cond_flip_prob, double p1)
    : group_of_(std::move(group_of)),
      group_event_prob_(std::move(group_event_prob)),
      cond_flip_prob_(cond_flip_prob),
      one_threshold_(Rng::bernoulli_threshold(p1)),
      flip_threshold_(Rng::bernoulli_threshold(cond_flip_prob)) {
  MPE_EXPECTS(!group_of_.empty());
  MPE_EXPECTS(!group_event_prob_.empty());
  for (std::size_t g : group_of_) {
    MPE_EXPECTS_MSG(g < group_event_prob_.size(),
                    "line assigned to nonexistent group");
  }
  for (double p : group_event_prob_) {
    event_thresholds_.push_back(Rng::bernoulli_threshold(p));
  }
}

double CorrelatedPairGenerator::transition_prob(std::size_t line) const {
  MPE_EXPECTS(line < group_of_.size());
  return group_event_prob_[group_of_[line]] * cond_flip_prob_;
}

void CorrelatedPairGenerator::generate_into(Rng& rng,
                                            VectorPair& out) const {
  // Draw the shared group events first, then per-line conditional flips.
  // The events live past the pair's end in out.second, so a reused pair
  // needs no allocation. Local generator copy: see fill_bernoulli().
  const std::size_t width = group_of_.size();
  const std::size_t groups = event_thresholds_.size();
  out.first.resize(width);
  out.second.resize(width + groups);
  std::uint8_t* first = out.first.data();
  std::uint8_t* second = out.second.data();
  std::uint8_t* event = second + width;
  const std::uint64_t* event_threshold = event_thresholds_.data();
  const std::size_t* group = group_of_.data();
  const std::uint64_t one = one_threshold_;
  const std::uint64_t flip = flip_threshold_;
  Rng r = rng;
  for (std::size_t g = 0; g < groups; ++g) {
    event[g] = r.bernoulli_below(event_threshold[g]);
  }
  for (std::size_t i = 0; i < width; ++i) {
    const bool cur = r.bernoulli_below(one);
    first[i] = cur;
    second[i] = cur ^ (event[group[i]] && r.bernoulli_below(flip));
  }
  rng = r;
  out.second.resize(width);
}

std::string CorrelatedPairGenerator::description() const {
  return "group-correlated pairs, width " + std::to_string(width()) + ", " +
         std::to_string(num_groups()) + " groups";
}

}  // namespace mpe::vec
