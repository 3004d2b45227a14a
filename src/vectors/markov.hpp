// Markov input models — the full "transition/joint-transition probability
// specification" of the paper's category I.2:
//
//  * MarkovPairGenerator: each input line i is an independent two-state
//    Markov chain with rise probability p01[i] (P(next=1 | cur=0)) and fall
//    probability p10[i]. The first vector of each pair is drawn from the
//    chain's stationary distribution, the second by one chain step — so the
//    population is exactly the stationary vector-pair distribution.
//
//  * CorrelatedPairGenerator: joint-transition structure. Lines are grouped;
//    each group shares a latent Bernoulli "event" per cycle, and a line
//    flips when the group event fires AND its private coin (conditional
//    flip probability) agrees. This induces positive pairwise correlation
//    of transitions within a group (buses switching together) while keeping
//    per-line transition probability = group_event_prob * cond_flip_prob.
#pragma once

#include <string>
#include <vector>

#include "vectors/generators.hpp"

namespace mpe::vec {

/// Per-line two-state Markov chain input model.
class MarkovPairGenerator final : public PairGenerator {
 public:
  /// p01[i] / p10[i] are line i's rise/fall probabilities; both spans must
  /// have the generator's width. Stationary one-probability of line i is
  /// p01 / (p01 + p10); a line with p01 = p10 = p has transition
  /// probability p and stationary probability 1/2.
  MarkovPairGenerator(std::vector<double> p01, std::vector<double> p10);

  /// Convenience: uniform chain across all lines.
  MarkovPairGenerator(std::size_t width, double p01, double p10);

  void generate_into(Rng& rng, VectorPair& out) const override;
  std::size_t width() const override { return p01_.size(); }
  std::string description() const override;

  /// Stationary P(line i == 1).
  double stationary_one(std::size_t line) const;

  /// Stationary per-cycle transition probability of line i:
  /// P(0)*p01 + P(1)*p10.
  double transition_prob(std::size_t line) const;

 private:
  /// Line i's Rng::bernoulli_threshold of stationary_one(i), p01 and p10.
  struct Thresholds {
    std::uint64_t one, rise, fall;
  };

  std::vector<double> p01_;
  std::vector<double> p10_;
  std::vector<Thresholds> thresholds_;
};

/// Group-correlated transitions (joint-transition specification).
class CorrelatedPairGenerator final : public PairGenerator {
 public:
  /// `group_of[i]` assigns line i to a group id (0-based, contiguous ids).
  /// `group_event_prob[g]` is group g's shared per-cycle event probability;
  /// `cond_flip_prob` is each line's flip probability given the event.
  CorrelatedPairGenerator(std::vector<std::size_t> group_of,
                          std::vector<double> group_event_prob,
                          double cond_flip_prob, double p1 = 0.5);

  void generate_into(Rng& rng, VectorPair& out) const override;
  std::size_t width() const override { return group_of_.size(); }
  std::string description() const override;

  /// Effective per-line transition probability.
  double transition_prob(std::size_t line) const;

  std::size_t num_groups() const { return group_event_prob_.size(); }

 private:
  std::vector<std::size_t> group_of_;
  std::vector<double> group_event_prob_;
  double cond_flip_prob_;
  // Rng::bernoulli_threshold of the probabilities above and of p1.
  std::vector<std::uint64_t> event_thresholds_;
  std::uint64_t one_threshold_;
  std::uint64_t flip_threshold_;
};

}  // namespace mpe::vec
