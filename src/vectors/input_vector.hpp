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

  /// Number of positions whose bytes differ.
  std::size_t hamming() const;
};

/// A batch of vector pairs as packed bit rows: row k of `first` (`second`)
/// holds pair k's first (second) vector, input i at bit i % 64 of word
/// i / 64, row_words() words per row, bits past the width zero. It is the
/// layout the compiled simulator transposes into its lanes, and the one
/// fixed-draw generators draw into without storing a byte per bit.
struct PairRows {
  std::size_t width = 0;
  std::size_t count = 0;
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;

  std::size_t row_words() const { return (width + 63) / 64; }

  /// Sets width and count and sizes both matrices; rows are left to the
  /// caller to write.
  void resize(std::size_t width, std::size_t count);

  /// Packs the low bit of each byte of `pair` into row k.
  void set_pair(std::size_t k, const VectorPair& pair);
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
