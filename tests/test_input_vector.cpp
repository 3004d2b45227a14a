#include "vectors/input_vector.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace vec = mpe::vec;

TEST(InputVector, RandomVectorHasRightWidth) {
  mpe::Rng rng(1);
  const auto v = vec::random_vector(37, rng);
  EXPECT_EQ(v.size(), 37u);
  for (auto b : v) EXPECT_LE(b, 1);
}

TEST(InputVector, RandomVectorBalanced) {
  mpe::Rng rng(2);
  std::size_t ones = 0;
  const int reps = 2000;
  for (int i = 0; i < reps; ++i) {
    for (auto b : vec::random_vector(10, rng)) ones += b;
  }
  EXPECT_NEAR(ones / (10.0 * reps), 0.5, 0.02);
}

TEST(InputVector, BiasedVectorMatchesP1) {
  mpe::Rng rng(3);
  std::size_t ones = 0;
  const int reps = 3000;
  for (int i = 0; i < reps; ++i) {
    for (auto b : vec::biased_vector(10, 0.2, rng)) ones += b;
  }
  EXPECT_NEAR(ones / (10.0 * reps), 0.2, 0.02);
}

TEST(InputVector, FlipProbabilityControlsHamming) {
  mpe::Rng rng(4);
  const auto base = vec::random_vector(50, rng);
  std::size_t flips = 0;
  const int reps = 2000;
  for (int i = 0; i < reps; ++i) {
    const auto flipped = vec::flip_with_probability(base, 0.3, rng);
    vec::VectorPair p{base, flipped};
    flips += p.hamming();
  }
  EXPECT_NEAR(flips / (50.0 * reps), 0.3, 0.02);
}

TEST(InputVector, FlipZeroAndOneDegenerate) {
  mpe::Rng rng(5);
  const auto base = vec::random_vector(16, rng);
  const auto same = vec::flip_with_probability(base, 0.0, rng);
  EXPECT_EQ(same, base);
  const auto all = vec::flip_with_probability(base, 1.0, rng);
  vec::VectorPair p{base, all};
  EXPECT_EQ(p.hamming(), 16u);
  EXPECT_DOUBLE_EQ(p.activity(), 1.0);
}

TEST(VectorPair, HammingAndActivity) {
  vec::VectorPair p;
  p.first = {0, 0, 1, 1};
  p.second = {0, 1, 1, 0};
  EXPECT_EQ(p.hamming(), 2u);
  EXPECT_DOUBLE_EQ(p.activity(), 0.5);
}

// hamming() counts differing bytes, eight at a time: it must stay exact for
// any byte values (not just 0/1), including pairs that differ only in the
// top bit or only in low bits, at every offset of the 8-byte blocks and in
// the tail past the last whole block.
TEST(VectorPair, HammingCountsDifferingBytesOfAnyValue) {
  const std::vector<std::uint8_t> values = {0x00, 0x01, 0x02, 0x7f, 0x80,
                                            0x81, 0xfe, 0xff};
  mpe::Rng rng(11);
  for (std::size_t width : {1, 7, 8, 9, 16, 23, 64, 100}) {
    for (int trial = 0; trial < 50; ++trial) {
      vec::VectorPair p;
      p.first.resize(width);
      p.second.resize(width);
      std::size_t want = 0;
      for (std::size_t i = 0; i < width; ++i) {
        p.first[i] = values[rng.below(values.size())];
        p.second[i] = rng.bernoulli(0.5) ? p.first[i]
                                         : values[rng.below(values.size())];
        if (p.first[i] != p.second[i]) ++want;
      }
      ASSERT_EQ(p.hamming(), want) << "width " << width;
    }
  }
  vec::VectorPair top{vec::InputVector(9, 0x00), vec::InputVector(9, 0x80)};
  EXPECT_EQ(top.hamming(), 9u);
  vec::VectorPair low{vec::InputVector(9, 0x7f), vec::InputVector(9, 0x7e)};
  EXPECT_EQ(low.hamming(), 9u);
  vec::VectorPair same{vec::InputVector(9, 0xff), vec::InputVector(9, 0xff)};
  EXPECT_EQ(same.hamming(), 0u);
}

TEST(VectorPair, MismatchedWidthsRejected) {
  vec::VectorPair p;
  p.first = {0, 1};
  p.second = {0};
  EXPECT_THROW(p.hamming(), mpe::ContractViolation);
}

TEST(InputVector, ContractsOnArgs) {
  mpe::Rng rng(6);
  EXPECT_THROW(vec::random_vector(0, rng), mpe::ContractViolation);
  EXPECT_THROW(vec::biased_vector(4, 1.5, rng), mpe::ContractViolation);
  const vec::InputVector base = {0, 1};
  EXPECT_THROW(vec::flip_with_probability(base, -0.1, rng),
               mpe::ContractViolation);
}

}  // namespace
