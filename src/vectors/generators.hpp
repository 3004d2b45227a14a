// Vector-pair generators: the input-statistics side of population
// construction. Three families, matching the paper's experimental setup:
//   * UniformPairGenerator — all vector pairs equally likely (category I.1
//     sampling primitive);
//   * HighActivityPairGenerator — uniform pairs filtered to average
//     switching activity >= a threshold (the paper's 160k unconstrained
//     populations use threshold 0.3);
//   * TransitionProbPairGenerator — per-line transition probability fixed
//     (the paper's category I.2 constrained populations, at 0.7 and 0.3).
#pragma once

#include <memory>
#include <string>

#include "util/rng.hpp"
#include "vectors/input_vector.hpp"

namespace mpe::vec {

/// Interface: draws i.i.d. vector pairs for a fixed input width.
class PairGenerator {
 public:
  virtual ~PairGenerator() = default;

  /// Draws one vector pair.
  VectorPair generate(Rng& rng) const {
    VectorPair p;
    generate_into(rng, p);
    return p;
  }

  /// Draws one vector pair into `out`, reusing its storage: the one draw
  /// loop of each generator, which batched draw paths call to avoid four
  /// allocations per unit. Consumes the RNG exactly like generate().
  virtual void generate_into(Rng& rng, VectorPair& out) const = 0;

  /// Primary-input width the pairs are generated for.
  virtual std::size_t width() const = 0;

  /// Human-readable description for reports.
  virtual std::string description() const = 0;
};

/// Both vectors uniform and independent.
class UniformPairGenerator final : public PairGenerator {
 public:
  explicit UniformPairGenerator(std::size_t width);
  void generate_into(Rng& rng, VectorPair& out) const override;
  std::size_t width() const override { return width_; }
  std::string description() const override;

 private:
  std::size_t width_;
};

/// Uniform pairs, rejection-filtered to activity >= min_activity.
class HighActivityPairGenerator final : public PairGenerator {
 public:
  HighActivityPairGenerator(std::size_t width, double min_activity);
  void generate_into(Rng& rng, VectorPair& out) const override;
  std::size_t width() const override { return width_; }
  std::string description() const override;
  double min_activity() const { return min_activity_; }

 private:
  std::size_t width_;
  double min_activity_;
};

/// First vector Bernoulli(p1) per line; second flips each line with the
/// given transition probability.
class TransitionProbPairGenerator final : public PairGenerator {
 public:
  TransitionProbPairGenerator(std::size_t width, double transition_prob,
                              double p1 = 0.5);
  void generate_into(Rng& rng, VectorPair& out) const override;
  std::size_t width() const override { return width_; }
  std::string description() const override;
  double transition_prob() const { return transition_prob_; }

 private:
  std::size_t width_;
  double transition_prob_;
  std::uint64_t one_threshold_;   // Rng::bernoulli_threshold(p1)
  std::uint64_t flip_threshold_;  // Rng::bernoulli_threshold(transition_prob)
};

}  // namespace mpe::vec
