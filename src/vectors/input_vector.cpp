#include "vectors/input_vector.hpp"

#include <bit>
#include <cstring>

#include "util/contracts.hpp"

namespace mpe::vec {

namespace {

constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;

/// Packs the low bits of 8 consecutive bytes into 8 result bits (bit i =
/// byte i). The multiplier places byte k's LSB at bit 56 + k; all 64
/// partial-product bit positions are distinct, so no carries.
std::uint64_t pack8(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, 8);
  return ((x & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

}  // namespace

std::size_t VectorPair::hamming() const {
  MPE_EXPECTS(first.size() == second.size());
  const std::size_t n = first.size();
  std::size_t h = 0;
  std::size_t i = 0;
  // Eight bytes at a time: a byte of a ^ b is non-zero exactly when its low
  // seven bits carry into its top bit (adding 0x7f cannot carry past the
  // byte) or its top bit is set.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, first.data() + i, 8);
    std::memcpy(&b, second.data() + i, 8);
    const std::uint64_t x = a ^ b;
    h += static_cast<std::size_t>(
        std::popcount((((x & kLow7) + kLow7) | x) & ~kLow7));
  }
  for (; i < n; ++i) h += (first[i] != second[i]) ? 1 : 0;
  return h;
}

void PairRows::resize(std::size_t new_width, std::size_t new_count) {
  width = new_width;
  count = new_count;
  first.resize(count * row_words());
  second.resize(count * row_words());
}

void PairRows::set_pair(std::size_t k, const VectorPair& pair) {
  MPE_EXPECTS(k < count);
  MPE_EXPECTS_MSG(pair.first.size() == width && pair.second.size() == width,
                  "pair width must match the rows' width");
  const std::size_t words = row_words();
  std::uint64_t* r1 = first.data() + k * words;
  std::uint64_t* r2 = second.data() + k * words;
  std::memset(r1, 0, words * sizeof(std::uint64_t));
  std::memset(r2, 0, words * sizeof(std::uint64_t));
  const std::uint8_t* v1 = pair.first.data();
  const std::uint8_t* v2 = pair.second.data();
  std::size_t i = 0;
  for (; i + 8 <= width; i += 8) {
    r1[i >> 6] |= pack8(v1 + i) << (i & 63);
    r2[i >> 6] |= pack8(v2 + i) << (i & 63);
  }
  for (; i < width; ++i) {
    r1[i >> 6] |= static_cast<std::uint64_t>(v1[i] & 1) << (i & 63);
    r2[i >> 6] |= static_cast<std::uint64_t>(v2[i] & 1) << (i & 63);
  }
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
