#include "vectors/input_vector.hpp"

#include "util/contracts.hpp"

namespace mpe::vec {

std::size_t VectorPair::hamming() const {
  MPE_EXPECTS(first.size() == second.size());
  std::size_t h = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    h += (first[i] != second[i]) ? 1 : 0;
  }
  return h;
}

double VectorPair::activity() const {
  MPE_EXPECTS(!first.empty());
  return static_cast<double>(hamming()) / static_cast<double>(first.size());
}

InputVector random_vector(std::size_t width, Rng& rng) {
  MPE_EXPECTS(width >= 1);
  InputVector v;
  fill_bernoulli(width, Rng::bernoulli_threshold(0.5), v, rng);
  return v;
}

InputVector biased_vector(std::size_t width, double p1, Rng& rng) {
  MPE_EXPECTS(width >= 1);
  InputVector v;
  fill_bernoulli(width, Rng::bernoulli_threshold(p1), v, rng);
  return v;
}

InputVector flip_with_probability(const InputVector& base,
                                  double transition_prob, Rng& rng) {
  InputVector v;
  fill_flipped(base, Rng::bernoulli_threshold(transition_prob), v, rng);
  return v;
}

// Both loops draw from a local copy of the generator (see Rng::operator())
// and write through pointers held in locals, so no byte store can alias
// the xoshiro state or a vector's bounds out of registers.
void fill_bernoulli(std::size_t width, std::uint64_t threshold,
                    InputVector& out, Rng& rng) {
  out.resize(width);
  Rng r = rng;
  for (auto& bit : out) bit = r.bernoulli_below(threshold);
  rng = r;
}

void fill_flipped(const InputVector& base, std::uint64_t threshold,
                  InputVector& out, Rng& rng) {
  out.resize(base.size());
  const std::uint8_t* in = base.data();
  Rng r = rng;
  for (auto& bit : out) bit = *in++ ^ r.bernoulli_below(threshold);
  rng = r;
}

}  // namespace mpe::vec
