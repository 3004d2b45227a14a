// Every pair generator must produce the unit stream of its reference form:
// each bit drawn with rng.bernoulli(p) through the Rng's state in memory.
// The reference loops below are kept verbatim; the generators draw by
// integer threshold from a local copy of the Rng, and must match them in
// the pair bytes and in the Rng state after every draw. The PairRows tests
// hold generate_rows() to the same stream: on every kernel, its packed rows
// and the Rng's end state equal `count` generate_into() calls.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "sim/cpu_dispatch.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"
#include "vectors/markov.hpp"

namespace {

namespace vec = mpe::vec;
using mpe::Rng;

namespace reference {

vec::InputVector random_vector(std::size_t width, Rng& rng) {
  vec::InputVector v(width);
  for (auto& bit : v) bit = rng.bernoulli(0.5) ? 1 : 0;
  return v;
}

vec::VectorPair uniform(std::size_t width, Rng& rng) {
  return vec::VectorPair{random_vector(width, rng), random_vector(width, rng)};
}

vec::VectorPair high_activity(std::size_t width, double min_activity,
                              Rng& rng) {
  for (int attempt = 0; attempt < 10'000; ++attempt) {
    vec::VectorPair p{random_vector(width, rng), random_vector(width, rng)};
    if (p.activity() >= min_activity) return p;
  }
  vec::VectorPair p;
  p.first = random_vector(width, rng);
  p.second = p.first;
  const auto flips =
      static_cast<std::size_t>(min_activity * static_cast<double>(width)) + 1;
  for (std::size_t f = 0; f < flips && f < width; ++f) {
    std::size_t idx;
    do {
      idx = rng.below(width);
    } while (p.second[idx] != p.first[idx]);
    p.second[idx] ^= 1;
  }
  return p;
}

vec::VectorPair transition_prob(std::size_t width, double transition_prob,
                                double p1, Rng& rng) {
  vec::VectorPair out;
  out.first.resize(width);
  for (auto& bit : out.first) bit = rng.bernoulli(p1) ? 1 : 0;
  out.second = out.first;
  for (auto& bit : out.second) {
    if (rng.bernoulli(transition_prob)) bit ^= 1;
  }
  return out;
}

vec::VectorPair markov(const std::vector<double>& p01,
                       const std::vector<double>& p10, Rng& rng) {
  vec::VectorPair pair;
  pair.first.resize(p01.size());
  pair.second.resize(p01.size());
  for (std::size_t i = 0; i < p01.size(); ++i) {
    const bool cur = rng.bernoulli(p01[i] / (p01[i] + p10[i]));
    pair.first[i] = cur ? 1 : 0;
    const double flip = cur ? p10[i] : p01[i];
    pair.second[i] = (rng.bernoulli(flip) ? !cur : cur) ? 1 : 0;
  }
  return pair;
}

vec::VectorPair correlated(const std::vector<std::size_t>& group_of,
                           const std::vector<double>& group_event_prob,
                           double cond_flip_prob, double p1, Rng& rng) {
  std::vector<bool> event(group_event_prob.size());
  for (std::size_t g = 0; g < event.size(); ++g) {
    event[g] = rng.bernoulli(group_event_prob[g]);
  }
  vec::VectorPair pair;
  pair.first.resize(group_of.size());
  pair.second.resize(group_of.size());
  for (std::size_t i = 0; i < group_of.size(); ++i) {
    const bool cur = rng.bernoulli(p1);
    pair.first[i] = cur ? 1 : 0;
    const bool flips = event[group_of[i]] && rng.bernoulli(cond_flip_prob);
    pair.second[i] = (flips ? !cur : cur) ? 1 : 0;
  }
  return pair;
}

}  // namespace reference

const std::vector<std::size_t> kWidths = {1, 2, 7, 63, 64, 65, 207};

// Exact-threshold edge cases: the endpoints, 0.5 and its neighbours, values
// whose p * 2^53 is not an integer, subnormal and tiny p, and 1 - 2^-53.
const std::vector<double> kProbs = {0.0,
                                    1.0,
                                    0.5,
                                    std::nextafter(0.5, 0.0),
                                    std::nextafter(0.5, 1.0),
                                    1.0 / 3.0,
                                    0.3,
                                    0.7,
                                    4.9e-324,
                                    1e-300,
                                    1.0 - 0x1.0p-53};

constexpr int kDraws = 3;

// An Rng whose next output is `x`: xoshiro256++ returns
// rotl(s0 + s3, 23) + s0, which is x for s0 = 0 and s3 = rotr(x, 23).
Rng emitting(std::uint64_t x) {
  Rng::State state;
  state.s = {0, 1, 0, (x >> 23) | (x << 41)};
  Rng rng;
  rng.set_state(state);
  return rng;
}

// A seeded Rng, then Rngs whose first word sits just below and at the
// threshold of each probability in `probs`, so the first draw lands on
// the exact-compare edge.
std::vector<Rng> starts(std::uint64_t seed, const std::vector<double>& probs) {
  std::vector<Rng> out{Rng(seed)};
  for (double p : probs) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    out.push_back(emitting((t - 1) << 11));
    out.push_back(emitting(t << 11));
  }
  return out;
}

template <typename Reference>
void expect_same_stream_from(const vec::PairGenerator& gen,
                             Reference expected, const Rng& start) {
  Rng want = start;
  Rng got = start;
  Rng got_into = start;
  vec::VectorPair reused{vec::InputVector(300, 1), vec::InputVector(5, 1)};
  for (int d = 0; d < kDraws; ++d) {
    const vec::VectorPair w = expected(want);
    const vec::VectorPair g = gen.generate(got);
    gen.generate_into(got_into, reused);
    ASSERT_EQ(g.first, w.first) << gen.description() << ", draw " << d;
    ASSERT_EQ(g.second, w.second) << gen.description() << ", draw " << d;
    ASSERT_EQ(got.state().s, want.state().s) << gen.description();
    ASSERT_EQ(reused.first, w.first) << gen.description() << ", draw " << d;
    ASSERT_EQ(reused.second, w.second) << gen.description() << ", draw " << d;
    ASSERT_EQ(got_into.state().s, want.state().s) << gen.description();
  }
}

// Draws kDraws pairs from `gen` and from `expected`, each on its own copy
// of every start Rng, and asserts equal bytes and equal Rng state after
// every draw, through both generate() and a reused generate_into() pair.
template <typename Reference>
void expect_same_stream(const vec::PairGenerator& gen, Reference expected,
                        std::uint64_t seed,
                        const std::vector<double>& edge_probs = kProbs) {
  for (const Rng& start : starts(seed, edge_probs)) {
    expect_same_stream_from(gen, expected, start);
  }
}

TEST(PairStreamEquivalence, Uniform) {
  for (std::size_t w : kWidths) {
    const vec::UniformPairGenerator gen(w);
    expect_same_stream(
        gen, [&](Rng& rng) { return reference::uniform(w, rng); }, 100 + w);
  }
}

TEST(PairStreamEquivalence, HighActivity) {
  for (std::size_t w : kWidths) {
    for (double min : kProbs) {
      if (min >= 1.0) continue;  // the generator requires min < 1
      const vec::HighActivityPairGenerator gen(w, min);
      expect_same_stream(
          gen,
          [&](Rng& rng) { return reference::high_activity(w, min, rng); },
          200 + w, {0.5});
    }
  }
}

TEST(PairStreamEquivalence, TransitionProb) {
  for (std::size_t w : kWidths) {
    for (double tprob : kProbs) {
      for (double p1 : kProbs) {
        const vec::TransitionProbPairGenerator gen(w, tprob, p1);
        expect_same_stream(
            gen,
            [&](Rng& rng) {
              return reference::transition_prob(w, tprob, p1, rng);
            },
            300 + w);
      }
    }
  }
}

TEST(PairStreamEquivalence, Markov) {
  const std::size_t n = kProbs.size();
  for (std::size_t w : kWidths) {
    // Uniform chains over every (p01, p10) pair, then lines that each take
    // a different pair.
    std::vector<std::pair<std::vector<double>, std::vector<double>>> chains;
    for (double p01 : kProbs) {
      for (double p10 : kProbs) {
        if (p01 + p10 > 0.0) {
          chains.emplace_back(std::vector<double>(w, p01),
                              std::vector<double>(w, p10));
        }
      }
    }
    std::vector<double> p01(w), p10(w);
    for (std::size_t i = 0; i < w; ++i) {
      p01[i] = kProbs[i % n];
      p10[i] = kProbs[(7 * i + 3) % n];
      if (p01[i] + p10[i] == 0.0) p10[i] = 0.5;
    }
    chains.emplace_back(p01, p10);
    for (const auto& [rise, fall] : chains) {
      const vec::MarkovPairGenerator gen(rise, fall);
      expect_same_stream(
          gen, [&](Rng& rng) { return reference::markov(rise, fall, rng); },
          400 + w, {gen.stationary_one(0), rise[0], fall[0]});
    }
  }
}

TEST(PairStreamEquivalence, Correlated) {
  const std::size_t n = kProbs.size();
  for (std::size_t w : kWidths) {
    // One group, a few groups, and more groups than lines.
    for (std::size_t groups : {std::size_t{1}, std::size_t{3}, w + 2}) {
      std::vector<std::size_t> group_of(w);
      for (std::size_t i = 0; i < w; ++i) group_of[i] = i % groups;
      for (std::size_t j = 0; j < n; ++j) {
        // Group 0's event, the first draw, takes every edge probability.
        std::vector<double> event(groups);
        for (std::size_t g = 0; g < groups; ++g) {
          event[g] = kProbs[(g + j) % n];
        }
        const double cond = kProbs[j];
        for (double p1 : kProbs) {
          const vec::CorrelatedPairGenerator gen(group_of, event, cond, p1);
          expect_same_stream(
              gen,
              [&](Rng& rng) {
                return reference::correlated(group_of, event, cond, p1, rng);
              },
              500 + w, {event[0]});
        }
      }
    }
  }
}

// Each group's event probability swept over every edge case, with the
// line-level probabilities at 0.5: the event draws gate which flip draws
// happen at all.
TEST(PairStreamEquivalence, CorrelatedEventProbabilities) {
  for (std::size_t w : kWidths) {
    std::vector<std::size_t> group_of(w);
    for (std::size_t i = 0; i < w; ++i) group_of[i] = i % kProbs.size();
    const vec::CorrelatedPairGenerator gen(group_of, kProbs, 0.5);
    expect_same_stream(
        gen,
        [&](Rng& rng) {
          return reference::correlated(group_of, kProbs, 0.5, 0.5, rng);
        },
        600 + w);
  }
}

// Asserts that `rows` holds `pairs` bit for bit, input i at bit i % 64 of
// word i / 64, with every bit past the width zero.
void expect_rows_hold(const vec::PairRows& rows,
                      const std::vector<vec::VectorPair>& pairs,
                      const std::string& what) {
  const std::size_t width = pairs.front().first.size();
  const std::size_t words = (width + 63) / 64;
  ASSERT_EQ(rows.width, width) << what;
  ASSERT_EQ(rows.count, pairs.size()) << what;
  ASSERT_EQ(rows.row_words(), words) << what;
  ASSERT_EQ(rows.first.size(), pairs.size() * words) << what;
  ASSERT_EQ(rows.second.size(), pairs.size() * words) << what;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t want1 = 0, want2 = 0;
      for (std::size_t b = 0; b < 64 && 64 * w + b < width; ++b) {
        want1 |= std::uint64_t{pairs[k].first[64 * w + b]} << b;
        want2 |= std::uint64_t{pairs[k].second[64 * w + b]} << b;
      }
      ASSERT_EQ(rows.first[k * words + w], want1)
          << what << ", pair " << k << ", word " << w;
      ASSERT_EQ(rows.second[k * words + w], want2)
          << what << ", pair " << k << ", word " << w;
    }
  }
}

// Draws `count` pairs through generate_rows() on every available kernel,
// from a reused PairRows that holds stale bits, and through generate_into()
// on a copy of the same Rng; the rows and the Rng end states must match.
void expect_rows_match_pairs(const vec::PairGenerator& gen, std::size_t count,
                             std::uint64_t seed) {
  Rng want(seed);
  std::vector<vec::VectorPair> pairs(count);
  for (auto& pair : pairs) gen.generate_into(want, pair);
  for (const mpe::sim::SimdKernel kernel : mpe::sim::available_kernels()) {
    const std::string what = gen.description() + ", " + std::to_string(count) +
                             " pairs on " + mpe::sim::to_string(kernel);
    vec::PairRows rows;
    rows.width = gen.width();
    rows.count = count + 3;
    rows.first.assign(rows.count * rows.row_words(), ~0ULL);
    rows.second.assign(rows.count * rows.row_words(), ~0ULL);
    Rng got(seed);
    Rng::State start = got.state();
    start.spare_normal = 0.25;  // a spare normal, which the draw must keep
    start.has_spare = true;
    got.set_state(start);
    gen.generate_rows(got, count, rows, kernel);
    expect_rows_hold(rows, pairs, what);
    ASSERT_EQ(got.state().s, want.state().s) << what;
    ASSERT_TRUE(got.state().has_spare) << what;
    ASSERT_EQ(got.state().spare_normal, 0.25) << what;
  }
}

const std::vector<std::size_t> kRowWidths = {1, 7, 63, 64, 65, 207, 233};
const std::vector<std::size_t> kRowCounts = {1, 7, 8, 9, 63, 64, 300, 512};

TEST(PairRows, UniformMatchesGenerateInto) {
  for (std::size_t w : kRowWidths) {
    const vec::UniformPairGenerator gen(w);
    for (std::size_t count : kRowCounts) {
      expect_rows_match_pairs(gen, count, 700 + w + count);
    }
  }
}

TEST(PairRows, TransitionProbMatchesGenerateInto) {
  for (std::size_t w : kRowWidths) {
    for (double tprob : {0.0, 0.3, 0.5, 0.7, 1.0}) {
      for (double p1 : {0.5, 0.2, 1.0}) {
        const vec::TransitionProbPairGenerator gen(w, tprob, p1);
        for (std::size_t count : kRowCounts) {
          expect_rows_match_pairs(gen, count, 800 + w + count);
        }
      }
    }
  }
}

// The generators that keep the default generate_rows(): per-pair
// generate_into() packed into rows.
TEST(PairRows, DefaultPacksGenerateInto) {
  for (std::size_t w : {std::size_t{7}, std::size_t{65}}) {
    const vec::HighActivityPairGenerator high(w, 0.3);
    const vec::MarkovPairGenerator markov(w, 0.3, 0.2);
    for (std::size_t count : {std::size_t{1}, std::size_t{9}}) {
      expect_rows_match_pairs(high, count, 900 + w + count);
      expect_rows_match_pairs(markov, count, 900 + w + count);
    }
  }
}

// Lane start-up tables are shared by every thread of the process: threads
// drawing at the same and at different strides at once must each still get
// the generate_into() stream.
TEST(PairRows, ConcurrentDrawsShareTheJumpCache) {
  const mpe::sim::SimdKernel kernel = mpe::sim::best_kernel();
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      const vec::TransitionProbPairGenerator gen(61 + 2 * (t % 2), 0.3);
      vec::PairRows rows, want;
      vec::VectorPair pair;
      for (std::size_t round = 0; round < 20; ++round) {
        const std::size_t count = 40 + 8 * ((t + round) % 3);
        Rng got(1000 * t + round), ref(1000 * t + round);
        gen.generate_rows(got, count, rows, kernel);
        want.resize(gen.width(), count);
        for (std::size_t k = 0; k < count; ++k) {
          gen.generate_into(ref, pair);
          want.set_pair(k, pair);
        }
        if (rows.first != want.first || rows.second != want.second ||
            got.state().s != ref.state().s) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(PairRows, RejectsAnUnavailableKernelAndWidthMismatch) {
  const vec::UniformPairGenerator gen(9);
  vec::PairRows rows;
  rows.resize(9, 1);
  const vec::VectorPair wrong{vec::InputVector(8), vec::InputVector(8)};
  EXPECT_THROW(rows.set_pair(0, wrong), mpe::ContractViolation);
  EXPECT_THROW(rows.set_pair(1, {vec::InputVector(9), vec::InputVector(9)}),
               mpe::ContractViolation);
  for (const auto kernel : {mpe::sim::SimdKernel::kAvx2x256,
                            mpe::sim::SimdKernel::kAvx512x512}) {
    if (mpe::sim::kernel_available(kernel)) continue;
    Rng rng(1);
    EXPECT_THROW(gen.generate_rows(rng, 64, rows, kernel),
                 mpe::ContractViolation);
  }
}

}  // namespace
