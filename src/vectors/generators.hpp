// Vector-pair generators: the input-statistics side of population
// construction. Three families, matching the paper's experimental setup:
//   * UniformPairGenerator — all vector pairs equally likely (category I.1
//     sampling primitive);
//   * HighActivityPairGenerator — uniform pairs filtered to average
//     switching activity >= a threshold (the paper's 160k unconstrained
//     populations use threshold 0.3);
//   * TransitionProbPairGenerator — per-line transition probability fixed
//     (the paper's category I.2 constrained populations, at 0.7 and 0.3).
//
// Uniform and transition-probability pairs are fixed-draw pairs: 2 * width
// Bernoulli draws in a fixed recipe. They draw whole batches straight into
// packed rows on 8 (AVX-512) or 4 (AVX2) xoshiro lanes, each lane started
// by an exact jump-ahead, so every drawn bit and the Rng's end state equal
// those of the per-pair loop.
#pragma once

#include <memory>
#include <string>

#include "sim/cpu_dispatch.hpp"
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

  /// Draws `count` pairs into `out` as packed rows: the pairs and the RNG
  /// stream of `count` generate_into() calls. `kernel` is the compiled
  /// simulator's kernel, whose ISA the draw may use. The default packs
  /// generate_into() pairs one at a time.
  virtual void generate_rows(Rng& rng, std::size_t count, PairRows& out,
                             sim::SimdKernel kernel) const;

  /// Primary-input width the pairs are generated for.
  virtual std::size_t width() const = 0;

  /// Human-readable description for reports.
  virtual std::string description() const = 0;
};

/// How a fixed-draw pair spends its 2 * width Bernoulli draws: the first
/// vector's bits in line order against first_threshold, then width more
/// against second_threshold, which are the second vector's bits or, when
/// `flips`, flip the first vector's bits.
struct BitRecipe {
  std::uint64_t first_threshold;   ///< Rng::bernoulli_threshold
  std::uint64_t second_threshold;  ///< Rng::bernoulli_threshold
  bool flips;
};

/// A generator whose pairs follow one BitRecipe. The recipe drives both
/// generate_into() and the lane draw of generate_rows().
class FixedDrawPairGenerator : public PairGenerator {
 public:
  void generate_into(Rng& rng, VectorPair& out) const final;
  void generate_rows(Rng& rng, std::size_t count, PairRows& out,
                     sim::SimdKernel kernel) const final;
  std::size_t width() const final { return width_; }

 protected:
  FixedDrawPairGenerator(std::size_t width, BitRecipe recipe);

 private:
  std::size_t width_;
  BitRecipe recipe_;
};

/// Both vectors uniform and independent.
class UniformPairGenerator final : public FixedDrawPairGenerator {
 public:
  explicit UniformPairGenerator(std::size_t width);
  std::string description() const override;
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
class TransitionProbPairGenerator final : public FixedDrawPairGenerator {
 public:
  TransitionProbPairGenerator(std::size_t width, double transition_prob,
                              double p1 = 0.5);
  std::string description() const override;
  double transition_prob() const { return transition_prob_; }

 private:
  double transition_prob_;
};

}  // namespace mpe::vec
