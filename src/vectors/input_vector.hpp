// Input vectors and vector pairs — the sampling "units" of the paper. A
// unit is a pair (v1, v2): the circuit settles at v1, then v2 is applied at
// the clock edge and the dissipated cycle energy is measured.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace mpe::vec {

/// One primary-input assignment (index-aligned with Netlist::inputs()).
using InputVector = std::vector<std::uint8_t>;

/// A vector pair: the unit of the population V.
struct VectorPair {
  InputVector first;
  InputVector second;

  /// Average per-line switching activity: hamming(first, second) / width.
  double activity() const;

  /// Number of differing bit positions.
  std::size_t hamming() const;
};

/// Uniform random vector of the given width.
InputVector random_vector(std::size_t width, Rng& rng);

/// Random vector with P(bit == 1) = p1 per line.
InputVector biased_vector(std::size_t width, double p1, Rng& rng);

/// Derives the second vector by flipping each bit of `base` independently
/// with probability `transition_prob` (the paper's constrained-population
/// construction for category I.2).
InputVector flip_with_probability(const InputVector& base,
                                  double transition_prob, Rng& rng);

/// Resizes `out` to `width` and sets each bit, in index order, by one
/// draw against `threshold` (Rng::bernoulli_threshold(p)): the same words
/// and results as `bit = rng.bernoulli(p)` per line.
void fill_bernoulli(std::size_t width, std::uint64_t threshold,
                    InputVector& out, Rng& rng);

/// Sets `out` to `base` with each bit, in index order, flipped by one
/// Bernoulli draw against `threshold`.
void fill_flipped(const InputVector& base, std::uint64_t threshold,
                  InputVector& out, Rng& rng);

}  // namespace mpe::vec
