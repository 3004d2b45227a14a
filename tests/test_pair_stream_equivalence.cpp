// Every pair generator must produce the unit stream of its reference form:
// each bit drawn with rng.bernoulli(p) through the Rng's state in memory.
// The reference loops below are kept verbatim; the generators draw by
// integer threshold from a local copy of the Rng, and must match them in
// the pair bytes and in the Rng state after every draw.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

}  // namespace
