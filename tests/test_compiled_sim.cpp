// Differential verification of the compiled gate-tape simulator: every
// kernel variant available on the host must produce toggle counts and
// energies bit-identical to the scalar zero-delay oracle, over random DAGs
// covering every gate type, all circuit presets, partial batches, and the
// zero-delay streaming population at several thread counts. Equality is
// exact (EXPECT_EQ on doubles): the kernels share one accumulation order, so
// this is a bit-identity contract, not a tolerance.
#include "sim/simd_sim.hpp"

#include <gtest/gtest.h>

#include "gen/presets.hpp"
#include "gen/random_dag.hpp"
#include "gen/trees.hpp"
#include "maxpower/engine.hpp"
#include "maxpower/estimator.hpp"
#include "sim/cpu_dispatch.hpp"
#include "sim/gate_program.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"
#include "vectors/population.hpp"

namespace {

namespace sim = mpe::sim;
namespace vec = mpe::vec;
namespace mp = mpe::maxpower;

std::vector<vec::VectorPair> random_pairs(std::size_t width, std::size_t n,
                                          std::uint64_t seed) {
  mpe::Rng rng(seed);
  std::vector<vec::VectorPair> out(n);
  for (auto& p : out) {
    p.first = vec::random_vector(width, rng);
    p.second = vec::random_vector(width, rng);
  }
  return out;
}

/// Asserts that every available kernel reproduces the scalar zero-delay
/// oracle exactly on `n_pairs` random pairs (split into lane-sized batches
/// per kernel).
void expect_all_kernels_match(const mpe::circuit::Netlist& nl,
                              std::size_t n_pairs, std::uint64_t seed) {
  const sim::Technology tech;
  const auto program = sim::GateProgram::compile(nl, tech);
  sim::ZeroDelaySimulator oracle(nl, tech);
  const auto pairs = random_pairs(nl.num_inputs(), n_pairs, seed);

  // Scalar oracle reference, one evaluate per pair.
  std::vector<sim::CycleResult> expect(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    expect[k] = oracle.evaluate(pairs[k].first, pairs[k].second);
  }

  for (const sim::SimdKernel kernel : sim::available_kernels()) {
    SCOPED_TRACE(sim::to_string(kernel));
    sim::CompiledSimulator csim(program, kernel);
    std::vector<sim::CycleResult> results;
    for (std::size_t done = 0; done < pairs.size();) {
      const std::size_t lanes =
          std::min(csim.lanes(), pairs.size() - done);
      csim.evaluate_batch(
          std::span<const vec::VectorPair>(pairs).subspan(done, lanes),
          results);
      ASSERT_EQ(results.size(), lanes);
      for (std::size_t k = 0; k < lanes; ++k) {
        SCOPED_TRACE(done + k);
        EXPECT_EQ(results[k].toggles, expect[done + k].toggles);
        EXPECT_EQ(results[k].energy_pj, expect[done + k].energy_pj);
        EXPECT_EQ(results[k].power_mw, expect[done + k].power_mw);
      }
      done += lanes;
    }
  }
}

TEST(CompiledSim, DifferentialFuzzRandomDags) {
  // Random DAGs spanning every gate type: default mix, XOR-heavy (stresses
  // the parity runs), unary-heavy (BUF/NOT segments), and wide fanin
  // (generic N-ary loops). Each seed produces a fresh structure.
  std::vector<mpe::gen::RandomDagParams> variants(4);
  variants[0].name = "fuzz_default";
  variants[1].name = "fuzz_xor";
  variants[1].type_weights = {0.2, 0.2, 0.2, 0.2, 3.0, 3.0};
  variants[2].name = "fuzz_unary";
  variants[2].unary_fraction = 0.45;
  variants[3].name = "fuzz_wide";
  variants[3].max_fanin = 9;
  variants[3].num_gates = 120;

  std::uint64_t seed = 1000;
  for (const auto& params : variants) {
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE(params.name + "/" + std::to_string(trial));
      mpe::Rng rng(seed);
      const auto nl = mpe::gen::random_dag(params, rng);
      expect_all_kernels_match(nl, 2 * sim::kernel_lanes(sim::best_kernel()),
                               seed);
      ++seed;
    }
  }
}

TEST(CompiledSim, AllPresetsAllKernels) {
  for (const auto& info : mpe::gen::preset_catalog()) {
    SCOPED_TRACE(info.name);
    const auto nl = mpe::gen::build_preset(info.name, 1);
    expect_all_kernels_match(nl, 64, 42);
  }
}

TEST(CompiledSim, PartialAndSingleLaneBatches) {
  auto nl = mpe::gen::parity_tree(12, 2);
  const auto program = sim::GateProgram::compile(nl, sim::Technology{});
  sim::ZeroDelaySimulator oracle(nl, sim::Technology{});
  for (const sim::SimdKernel kernel : sim::available_kernels()) {
    SCOPED_TRACE(sim::to_string(kernel));
    sim::CompiledSimulator csim(program, kernel);
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                csim.lanes() - 1, csim.lanes()}) {
      const auto pairs = random_pairs(nl.num_inputs(), n, 7 + n);
      const auto results = csim.evaluate_batch(pairs);
      ASSERT_EQ(results.size(), n);
      for (std::size_t k = 0; k < n; ++k) {
        const auto expect = oracle.evaluate(pairs[k].first, pairs[k].second);
        EXPECT_EQ(results[k].toggles, expect.toggles) << k;
        EXPECT_EQ(results[k].energy_pj, expect.energy_pj) << k;
      }
    }
  }
}

TEST(CompiledSim, ForcedDispatchEveryKernelAvailableOnHost) {
  // Every kernel the dispatcher reports must construct and run; the widest
  // one must be best_kernel() (absent MPE_FORCE_SCALAR, which CI sets for
  // the scalar leg — in that mode best_kernel() is pinned to scalar).
  const auto kernels = sim::available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.back(), sim::SimdKernel::kScalar64);
  for (const sim::SimdKernel k : kernels) {
    EXPECT_TRUE(sim::kernel_available(k));
    EXPECT_GE(sim::kernel_lanes(k), 64u);
  }
  auto nl = mpe::gen::parity_tree(8, 2);
  const auto program = sim::GateProgram::compile(nl, sim::Technology{});
  for (const sim::SimdKernel k : kernels) {
    sim::CompiledSimulator csim(program, k);
    EXPECT_EQ(csim.kernel(), k);
    EXPECT_EQ(csim.lanes(), sim::kernel_lanes(k));
  }
}

TEST(CompiledSim, GateProgramStructure) {
  // The tape covers every gate exactly once, in level order, with segments
  // that never straddle a level boundary and never mix opcodes.
  const auto nl = mpe::gen::build_preset("c432", 1);
  const auto program = sim::GateProgram::compile(nl, sim::Technology{});
  EXPECT_EQ(program->num_gates(), nl.num_gates());
  EXPECT_EQ(program->num_nodes(), nl.num_nodes());

  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (const auto& seg : program->segments()) {
    EXPECT_EQ(seg.begin, prev_end);  // contiguous, no gaps or overlaps
    EXPECT_LT(seg.begin, seg.end);
    covered += seg.end - seg.begin;
    prev_end = seg.end;
  }
  EXPECT_EQ(covered, program->num_gates());

  // Evaluation order respects levelization: every fanin of gate record i
  // is either a primary input or the output of an earlier record.
  std::vector<bool> ready(program->num_nodes(), false);
  for (const auto in : nl.inputs()) ready[in] = true;
  for (std::size_t g = 0; g < program->num_gates(); ++g) {
    const std::size_t begin = program->fanin_begin()[g];
    for (std::size_t f = 0; f < program->fanin_count()[g]; ++f) {
      EXPECT_TRUE(ready[program->fanin()[begin + f]]) << "gate record " << g;
    }
    ready[program->output()[g]] = true;
  }
}

TEST(CompiledSim, ContractChecks) {
  auto nl = mpe::gen::parity_tree(8, 2);
  const auto program = sim::GateProgram::compile(nl, sim::Technology{});
  sim::CompiledSimulator csim(program, sim::SimdKernel::kScalar64);
  EXPECT_THROW(csim.evaluate_batch({}), mpe::ContractViolation);
  const auto too_many = random_pairs(nl.num_inputs(), csim.lanes() + 1, 1);
  EXPECT_THROW(csim.evaluate_batch(too_many), mpe::ContractViolation);
  const auto wrong_width = random_pairs(4, 2, 1);
  EXPECT_THROW(csim.evaluate_batch(wrong_width), mpe::ContractViolation);
}

TEST(StreamingCompiled, ValueStreamIdenticalAcrossBackends) {
  // A zero-delay population's draw_batch (compiled tape, dispatched kernel)
  // must reproduce its scalar draw() stream double for double: the tape is
  // a speed path, never a statistical one. Per-kernel identity is pinned at
  // the CompiledSimulator level (AllPresetsAllKernels).
  const auto nl = mpe::gen::build_preset("c880", 1);
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = sim::DelayModel::kZero;
  const vec::TransitionProbPairGenerator gen(nl.num_inputs(), 0.4);
  sim::CyclePowerEvaluator eval(nl, eval_opt);
  vec::StreamingPopulation pop(gen, eval);
  ASSERT_TRUE(pop.kernel().has_value());
  EXPECT_TRUE(pop.concurrent_draw_safe());

  std::vector<double> scalar(700);
  mpe::Rng scalar_rng(5);
  for (double& v : scalar) v = pop.draw(scalar_rng);
  std::vector<double> batch(700);
  mpe::Rng batch_rng(5);
  pop.draw_batch(batch, batch_rng);
  EXPECT_EQ(scalar, batch);
}

TEST(StreamingCompiled, RequiresZeroDelay) {
  const auto nl = mpe::gen::parity_tree(8, 2);
  sim::CyclePowerEvaluator eval(nl);  // fanout-loaded: event timing
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  EXPECT_FALSE(pop.kernel().has_value());
  // A tape handed to a non-zero-delay population is a caller error.
  const auto program = sim::GateProgram::compile(nl, sim::Technology{});
  EXPECT_THROW(vec::StreamingPopulation(gen, eval, program),
               mpe::ContractViolation);
}

TEST(StreamingCompiled, EngineBitIdenticalAcrossThreadCounts) {
  // The engine over a zero-delay population must give one estimate at every
  // thread count (concurrent tape draws from pool threads), equal to the
  // serial pipeline's — and a population that adopts a pre-compiled tape,
  // as the server's circuit cache hands it in, must give the same again.
  const auto nl = mpe::gen::build_preset("c432", 1);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = sim::DelayModel::kZero;

  mp::EstimatorOptions opt;
  opt.epsilon = 0.12;
  opt.max_hyper_samples = 40;
  const std::uint64_t seed = 9;
  const mp::Engine engine(mp::EngineConfig{opt, nullptr, {}});
  const auto expect_same = [](const mp::EstimationResult& r,
                              const mp::EstimationResult& base) {
    EXPECT_EQ(r.estimate, base.estimate);
    EXPECT_EQ(r.ci.lower, base.ci.lower);
    EXPECT_EQ(r.ci.upper, base.ci.upper);
    EXPECT_EQ(r.units_used, base.units_used);
    EXPECT_EQ(r.hyper_samples, base.hyper_samples);
  };

  sim::CyclePowerEvaluator eval(nl, eval_opt);
  vec::StreamingPopulation pop(gen, eval);
  ASSERT_TRUE(pop.concurrent_draw_safe());
  const auto base = engine.run(pop, seed, mp::ParallelOptions{});
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    mp::ParallelOptions par;
    par.threads = threads;
    expect_same(engine.run(pop, seed, par), base);
  }

  const auto program = sim::GateProgram::compile(nl, sim::Technology{});
  sim::CyclePowerEvaluator adopted_eval(nl, eval_opt);
  vec::StreamingPopulation adopted(gen, adopted_eval, program);
  mp::ParallelOptions par;
  par.threads = 2;
  expect_same(engine.run(adopted, seed, par), base);
  EXPECT_GT(adopted.draws(), 0u);
}

}  // namespace
