// Differential verification of the 64-lane event simulator: every lane's
// CycleResult (toggles, settle time, energy, power) must equal the scalar
// EventSimulator oracle's for the same pair, bit for bit, over random DAGs
// and ISCAS-class presets, unit and fanout-loaded delay, inertial and
// transport semantics, and partial, full and multi-pass batches. Equality is
// exact (EXPECT_EQ on doubles): both simulators sum a unit's energy in time
// order and, within one timestamp, in ascending node id.
#include "sim/batch_event_sim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "gen/presets.hpp"
#include "gen/random_dag.hpp"
#include "gen/trees.hpp"
#include "maxpower/engine.hpp"
#include "sim/power_eval.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"
#include "vectors/population.hpp"

namespace {

namespace sim = mpe::sim;
namespace vec = mpe::vec;
namespace mp = mpe::maxpower;

sim::EventSimOptions options(sim::DelayModel model, bool inertial) {
  sim::EventSimOptions o;
  o.delay_model = model;
  o.inertial = inertial;
  return o;
}

/// `n` pairs from `generator`, seeded.
std::vector<vec::VectorPair> make_pairs(const vec::PairGenerator& generator,
                                        std::size_t n, std::uint64_t seed) {
  mpe::Rng rng(seed);
  std::vector<vec::VectorPair> pairs(n);
  for (auto& p : pairs) generator.generate_into(rng, p);
  return pairs;
}

/// Evaluates `pairs` on the batch simulator in lane-sized passes.
std::vector<sim::CycleResult> batch_results(
    sim::BatchEventSimulator& batch, std::span<const vec::VectorPair> pairs) {
  std::vector<sim::CycleResult> all, pass;
  for (std::size_t done = 0; done < pairs.size();) {
    const std::size_t n = std::min(batch.lanes(), pairs.size() - done);
    batch.evaluate_batch(pairs.subspan(done, n), pass);
    EXPECT_EQ(pass.size(), n);
    all.insert(all.end(), pass.begin(), pass.end());
    done += n;
  }
  return all;
}

/// Asserts lane-for-lane bit identity with the scalar oracle for every
/// prefix of `pairs` whose length is in `sizes`.
void expect_matches_oracle(const mpe::circuit::Netlist& nl,
                           const sim::EventSimOptions& opt,
                           std::span<const vec::VectorPair> pairs,
                           std::initializer_list<std::size_t> sizes) {
  sim::EventSimulator oracle(nl, opt);
  std::vector<sim::CycleResult> expect;
  for (const auto& p : pairs) {
    expect.push_back(oracle.evaluate(p.first, p.second));
  }
  sim::BatchEventSimulator batch(nl, opt);
  for (std::size_t n : sizes) {
    SCOPED_TRACE("batch size " + std::to_string(n));
    ASSERT_LE(n, pairs.size());
    const auto got = batch_results(batch, pairs.first(n));
    ASSERT_EQ(got.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      SCOPED_TRACE(k);
      EXPECT_EQ(got[k].toggles, expect[k].toggles);
      EXPECT_EQ(got[k].settle_time_ns, expect[k].settle_time_ns);
      EXPECT_EQ(got[k].energy_pj, expect[k].energy_pj);
      EXPECT_EQ(got[k].power_mw, expect[k].power_mw);
    }
  }
}

void expect_matches_oracle(const mpe::circuit::Netlist& nl,
                           const sim::EventSimOptions& opt,
                           std::span<const vec::VectorPair> pairs) {
  expect_matches_oracle(nl, opt, pairs, {pairs.size()});
}

struct Mode {
  sim::DelayModel model;
  bool inertial;
};
constexpr Mode kModes[] = {{sim::DelayModel::kUnit, true},
                           {sim::DelayModel::kUnit, false},
                           {sim::DelayModel::kFanoutLoaded, true},
                           {sim::DelayModel::kFanoutLoaded, false}};

std::string mode_name(const Mode& m) {
  return std::string(sim::to_string(m.model)) +
         (m.inertial ? "/inertial" : "/transport");
}

TEST(BatchEventSim, DifferentialFuzzRandomDags) {
  // Random DAGs over every gate type: default mix, XOR-heavy (long glitch
  // trains), unary-heavy and wide fanin.
  std::vector<mpe::gen::RandomDagParams> variants(4);
  variants[0].name = "fuzz_default";
  variants[1].name = "fuzz_xor";
  variants[1].type_weights = {0.2, 0.2, 0.2, 0.2, 3.0, 3.0};
  variants[2].name = "fuzz_unary";
  variants[2].unary_fraction = 0.45;
  variants[3].name = "fuzz_wide";
  variants[3].max_fanin = 9;
  variants[3].num_gates = 120;

  std::uint64_t seed = 2000;
  for (const auto& params : variants) {
    for (int trial = 0; trial < 2; ++trial) {
      mpe::Rng rng(seed);
      const auto nl = mpe::gen::random_dag(params, rng);
      const vec::UniformPairGenerator uniform(nl.num_inputs());
      const vec::TransitionProbPairGenerator sparse(nl.num_inputs(), 0.1);
      for (const Mode& mode : kModes) {
        SCOPED_TRACE(params.name + "/" + std::to_string(trial) + "/" +
                     mode_name(mode));
        const auto opt = options(mode.model, mode.inertial);
        expect_matches_oracle(nl, opt, make_pairs(uniform, 65, seed));
        expect_matches_oracle(nl, opt, make_pairs(sparse, 64, seed + 1));
      }
      ++seed;
    }
  }
}

TEST(BatchEventSim, PresetsEveryModeAndBatchSize) {
  // Batch sizes 1, 63, 64 and 65: a single lane, a partial pass, a full
  // pass, and a full pass followed by a one-lane pass. Inertial runs use
  // high-activity pairs. Transport lets every glitch through, and on the
  // XOR trees of c1355 a high-activity pair makes ~300k toggles, so
  // transport runs use sparse pairs (2% of inputs switch; still ~20k
  // toggles per c1355 pair).
  for (const char* name : {"c432", "c880", "c1355", "c2670"}) {
    const auto nl = mpe::gen::build_preset(name, 1);
    const vec::HighActivityPairGenerator busy(nl.num_inputs(), 0.3);
    const vec::TransitionProbPairGenerator sparse(nl.num_inputs(), 0.02);
    for (const Mode& mode : kModes) {
      SCOPED_TRACE(std::string(name) + "/" + mode_name(mode));
      const vec::PairGenerator& generator =
          mode.inertial ? static_cast<const vec::PairGenerator&>(busy)
                        : sparse;
      const auto pairs = make_pairs(generator, 65, 100);
      expect_matches_oracle(nl, options(mode.model, mode.inertial), pairs,
                            {1, 63, 64, 65});
    }
  }
}

TEST(BatchEventSim, StaticLanesProduceNothing) {
  // Lanes whose two vectors are equal settle at t = 0 with no toggles,
  // whatever the other lanes do.
  const auto nl = mpe::gen::build_preset("c880", 1);
  const vec::UniformPairGenerator generator(nl.num_inputs());
  auto pairs = make_pairs(generator, 64, 5);
  for (std::size_t k = 0; k < pairs.size(); k += 2) {
    pairs[k].second = pairs[k].first;
  }
  sim::BatchEventSimulator batch(
      nl, options(sim::DelayModel::kFanoutLoaded, true));
  std::vector<sim::CycleResult> out;
  batch.evaluate_batch(pairs, out);
  for (std::size_t k = 0; k < pairs.size(); k += 2) {
    EXPECT_EQ(out[k].toggles, 0u) << k;
    EXPECT_EQ(out[k].energy_pj, 0.0) << k;
    EXPECT_EQ(out[k].settle_time_ns, 0.0) << k;
  }
  expect_matches_oracle(nl, options(sim::DelayModel::kFanoutLoaded, true),
                        pairs);
}

TEST(BatchEventSim, ReusedAcrossPasses) {
  // The simulator's state is per pass: a pass after one of a different
  // size gives the same results again.
  const auto nl = mpe::gen::build_preset("c432", 1);
  const vec::UniformPairGenerator generator(nl.num_inputs());
  const auto pairs = make_pairs(generator, 64, 11);
  sim::BatchEventSimulator batch(
      nl, options(sim::DelayModel::kFanoutLoaded, true));
  std::vector<sim::CycleResult> first, again;
  batch.evaluate_batch(pairs, first);
  batch.evaluate_batch(std::span(pairs).first(7), again);
  batch.evaluate_batch(pairs, again);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(again[k].energy_pj, first[k].energy_pj) << k;
    EXPECT_EQ(again[k].toggles, first[k].toggles) << k;
  }
}

TEST(BatchEventSim, MaxEventsGuardIsPerLane) {
  // The guard trips when any lane fires more events than the cap, exactly
  // when the oracle would throw for that lane's pair alone; the next pass
  // starts clean.
  const auto nl = mpe::gen::build_preset("c432", 1);
  const vec::UniformPairGenerator generator(nl.num_inputs());
  auto pairs = make_pairs(generator, 64, 13);
  auto opt = options(sim::DelayModel::kFanoutLoaded, true);

  // Lane 5 alone carries activity; every other lane is static.
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    if (k != 5) pairs[k].second = pairs[k].first;
  }
  sim::EventSimulator oracle(nl, opt);
  const auto busy = oracle.evaluate(pairs[5].first, pairs[5].second);
  ASSERT_GT(busy.toggles, 4u);

  opt.max_events = busy.toggles / 2;
  sim::EventSimulator capped(nl, opt);
  EXPECT_THROW(capped.evaluate(pairs[5].first, pairs[5].second),
               std::runtime_error);
  sim::BatchEventSimulator batch(nl, opt);
  std::vector<sim::CycleResult> out;
  EXPECT_THROW(batch.evaluate_batch(pairs, out), std::runtime_error);
  // With lane 5 quiet too, no lane exceeds the cap.
  pairs[5].second = pairs[5].first;
  ASSERT_NO_THROW(batch.evaluate_batch(pairs, out));
  for (const auto& r : out) EXPECT_EQ(r.toggles, 0u);
  // A busy lane under the cap evaluates as the oracle does.
  const auto quiet = make_pairs(vec::TransitionProbPairGenerator(
                                    nl.num_inputs(), 0.02),
                                64, 17);
  expect_matches_oracle(nl, opt, quiet);
}

TEST(BatchEventSim, TogglesAndSettleTimesPinned) {
  // Toggle counts and settle times are those the scalar simulator gave
  // before energies were summed in node order (that change moves energies
  // by at most an ulp and nothing else): sums over 128 high-activity pairs
  // per circuit, settle times hashed by bits.
  struct Pin {
    const char* circuit;
    std::size_t toggles;
    std::uint64_t settle_hash;
  };
  const Pin pins[] = {{"c1355", 126166, 17139867219802628156ull},
                      {"c2670", 52349, 16498104344800153949ull}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.circuit);
    const auto nl = mpe::gen::build_preset(pin.circuit, 1);
    const vec::HighActivityPairGenerator generator(nl.num_inputs(), 0.3);
    const auto pairs = make_pairs(generator, 128, 7);
    sim::BatchEventSimulator batch(nl, sim::EventSimOptions{});
    std::size_t toggles = 0;
    std::uint64_t hash = 1469598103934665603ull;
    for (const auto& r : batch_results(batch, pairs)) {
      toggles += r.toggles;
      hash = (hash ^ std::bit_cast<std::uint64_t>(r.settle_time_ns)) *
             1099511628211ull;
    }
    EXPECT_EQ(toggles, pin.toggles);
    EXPECT_EQ(hash, pin.settle_hash);
  }
}

TEST(BatchEventSim, ContractChecks) {
  const auto nl = mpe::gen::parity_tree(8, 2);
  EXPECT_THROW(
      sim::BatchEventSimulator(nl, options(sim::DelayModel::kZero, true)),
      mpe::ContractViolation);
  sim::BatchEventSimulator batch(nl, sim::EventSimOptions{});
  const vec::UniformPairGenerator generator(nl.num_inputs());
  std::vector<sim::CycleResult> out;
  const auto too_many = make_pairs(generator, 65, 1);
  EXPECT_THROW(batch.evaluate_batch(too_many, out), mpe::ContractViolation);
  const vec::UniformPairGenerator narrow(nl.num_inputs() - 1);
  const auto wrong_width = make_pairs(narrow, 3, 1);
  EXPECT_THROW(batch.evaluate_batch(wrong_width, out),
               mpe::ContractViolation);
}

TEST(StreamingEvent, EngineBitIdenticalAcrossThreadCounts) {
  // The engine over a loaded-delay population gives one estimate at every
  // thread count: pool threads draw concurrently, each on a 64-lane event
  // simulator checked out of the population's slot freelist.
  const auto nl = mpe::gen::build_preset("c432", 1);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  sim::CyclePowerEvaluator eval(nl);  // fanout-loaded, inertial
  vec::StreamingPopulation pop(gen, eval);
  ASSERT_TRUE(pop.concurrent_draw_safe());

  mp::EstimatorOptions opt;
  opt.epsilon = 0.12;
  opt.max_hyper_samples = 12;
  const std::uint64_t seed = 9;
  mp::EngineConfig config;
  config.options = opt;
  const mp::Engine engine(config);
  const auto base = engine.run(pop, seed, mp::ParallelOptions{});
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    mp::ParallelOptions par;
    par.threads = threads;
    const auto r = engine.run(pop, seed, par);
    EXPECT_EQ(r.estimate, base.estimate);
    EXPECT_EQ(r.ci.lower, base.ci.lower);
    EXPECT_EQ(r.ci.upper, base.ci.upper);
    EXPECT_EQ(r.units_used, base.units_used);
    EXPECT_EQ(r.hyper_samples, base.hyper_samples);
  }
}

}  // namespace
