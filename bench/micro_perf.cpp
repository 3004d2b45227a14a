// Microbenchmarks (google-benchmark): raw throughput of the building
// blocks — zero-delay vs event-driven cycle simulation across circuit
// sizes, Weibull MLE fit latency, hyper-sample cost, and the statistical
// primitives on the estimator's hot path.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "mpe.hpp"

namespace {

using namespace mpe;

const circuit::Netlist& preset(const std::string& name) {
  static std::map<std::string, circuit::Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, gen::build_preset(name, 1)).first;
  }
  return it->second;
}

void BM_ZeroDelayCycle(benchmark::State& state, const std::string& name) {
  const auto& nl = preset(name);
  sim::ZeroDelaySimulator sim(nl, sim::Technology{});
  Rng rng(7);
  std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
  for (auto _ : state) {
    for (auto& b : v1) b = rng.bernoulli(0.5);
    for (auto& b : v2) b = rng.bernoulli(0.5);
    benchmark::DoNotOptimize(sim.evaluate(v1, v2).power_mw);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EventCycle(benchmark::State& state, const std::string& name,
                   bool inertial) {
  const auto& nl = preset(name);
  sim::EventSimOptions opt;
  opt.inertial = inertial;
  sim::EventSimulator sim(nl, opt);
  Rng rng(7);
  std::vector<std::uint8_t> v1(nl.num_inputs()), v2(nl.num_inputs());
  for (auto _ : state) {
    for (auto& b : v1) b = rng.bernoulli(0.5);
    for (auto& b : v2) b = rng.bernoulli(0.5);
    benchmark::DoNotOptimize(sim.evaluate(v1, v2).power_mw);
  }
  state.SetItemsProcessed(state.iterations());
}

// The 64-lane event simulator: one full evaluate_batch of fresh random
// pairs per iteration (the pair distribution BM_EventCycle draws), so each
// row compares per unit with the BM_EventCycle row of the same circuit and
// semantics.
void BM_EventBatch(benchmark::State& state, const std::string& name,
                   bool inertial) {
  const auto& nl = preset(name);
  sim::EventSimOptions opt;
  opt.inertial = inertial;
  sim::BatchEventSimulator sim(nl, opt);
  Rng rng(7);
  std::vector<vec::VectorPair> pairs(sim.lanes());
  std::vector<sim::CycleResult> results;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& p : pairs) {
      p.first = vec::random_vector(nl.num_inputs(), rng);
      p.second = vec::random_vector(nl.num_inputs(), rng);
    }
    state.ResumeTiming();
    sim.evaluate_batch(pairs, results);
    benchmark::DoNotOptimize(results.front().power_mw);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * pairs.size()));
}

// Raw compiled-tape throughput: one full-width evaluate_batch per
// iteration, per kernel variant. Compare the scalar64 vs avx2x256 vs
// avx512x512 rows for the widening gain; these rows are the per-kernel cost
// record. Kernels the host cannot run are skipped, not failed.
void BM_CompiledBatch(benchmark::State& state, const std::string& name,
                      sim::SimdKernel kernel) {
  if (!sim::kernel_available(kernel)) {
    state.SkipWithError("kernel unavailable on this host");
    return;
  }
  const auto& nl = preset(name);
  const auto program = sim::GateProgram::compile(nl, sim::Technology{});
  sim::CompiledSimulator csim(program, kernel);
  Rng rng(7);
  std::vector<vec::VectorPair> pairs(csim.lanes());
  for (auto& p : pairs) {
    p.first = vec::random_vector(nl.num_inputs(), rng);
    p.second = vec::random_vector(nl.num_inputs(), rng);
  }
  std::vector<sim::CycleResult> results;
  for (auto _ : state) {
    csim.evaluate_batch(pairs, results);
    benchmark::DoNotOptimize(results.front().power_mw);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * pairs.size()));
}

// Scalar reference draws: draw() one unit at a time on a zero-delay
// population, one full netlist traversal per unit. Same value stream as
// BM_CompiledDrawBatch's draw_batch for the same seed.
void BM_ScalarDraw(benchmark::State& state, const std::string& name) {
  const auto& nl = preset(name);
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = sim::DelayModel::kZero;
  sim::CyclePowerEvaluator eval(nl, eval_opt);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  Rng rng(7);
  std::vector<double> batch(256);
  for (auto _ : state) {
    for (double& v : batch) v = pop.draw(rng);
    benchmark::DoNotOptimize(batch.front());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch.size()));
}

// The generator families as production builds them for a circuit of the
// given input width: uniform (the `estimate` default and the examples),
// transition probability 0.5 (the campaign, manifest, serve and fleet
// default), high activity >= 0.3 (the paper's unconstrained populations),
// and a per-line Markov chain.
std::unique_ptr<vec::PairGenerator> make_generator(const std::string& kind,
                                                   std::size_t width) {
  if (kind == "tprob") {
    return std::make_unique<vec::TransitionProbPairGenerator>(width, 0.5);
  }
  if (kind == "highact") {
    return std::make_unique<vec::HighActivityPairGenerator>(width, 0.3);
  }
  if (kind == "markov") {
    return std::make_unique<vec::MarkovPairGenerator>(width, 0.3, 0.2);
  }
  return std::make_unique<vec::UniformPairGenerator>(width);
}

// Pair generation alone at c7552 width (207 inputs): generate_into, the
// form every batched draw path calls, into one reused pair.
void BM_PairGen(benchmark::State& state, const std::string& kind) {
  const auto gen = make_generator(kind, preset("c7552").num_inputs());
  Rng rng(7);
  vec::VectorPair pair;
  for (auto _ : state) {
    gen->generate_into(rng, pair);
    benchmark::DoNotOptimize(pair.first.data());
    benchmark::DoNotOptimize(pair.second.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Pair generation into packed rows at c7552 width: one tape pass's worth
// of pairs (the dispatched kernel's lanes) per iteration through
// generate_rows, the form the zero-delay population draws with. Items are
// pairs, so the rate compares directly with BM_PairGen.
void BM_PairRows(benchmark::State& state, const std::string& kind) {
  const auto gen = make_generator(kind, preset("c7552").num_inputs());
  const sim::SimdKernel kernel = sim::best_kernel();
  const std::size_t count = sim::kernel_lanes(kernel);
  Rng rng(7);
  vec::PairRows rows;
  for (auto _ : state) {
    gen->generate_rows(rng, count, rows, kernel);
    benchmark::DoNotOptimize(rows.first.data());
    benchmark::DoNotOptimize(rows.second.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * count));
  state.SetLabel(sim::to_string(kernel));
}

// End-to-end draw throughput of a zero-delay population (generation +
// compiled-tape simulation on the dispatched kernel), directly comparable to
// BM_ScalarDraw. The `c7552_tprob` row draws with the production
// default generator.
void BM_CompiledDrawBatch(benchmark::State& state, const std::string& name,
                          const std::string& generator) {
  const auto& nl = preset(name);
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = sim::DelayModel::kZero;
  sim::CyclePowerEvaluator eval(nl, eval_opt);
  const auto gen = make_generator(generator, nl.num_inputs());
  vec::StreamingPopulation pop(*gen, eval);
  Rng rng(7);
  std::vector<double> batch(1024);
  for (auto _ : state) {
    pop.draw_batch(batch, rng);
    benchmark::DoNotOptimize(batch.front());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch.size()));
}

// Full pipelined estimator over a zero-delay streaming population (the
// production configuration: the compiled tape evaluates every draw, and
// every unit is freshly simulated): thread-count scaling of the pipelined
// hyper-sample loop. Items = simulated units consumed by the stopping rule.
void BM_EstimatorPipeline(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto& nl = preset("c7552");
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = sim::DelayModel::kZero;
  sim::CyclePowerEvaluator eval(nl, eval_opt);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  maxpower::EstimatorOptions opt;
  std::unique_ptr<util::ThreadPool> pool;
  maxpower::ParallelOptions par;
  par.threads = threads;
  if (threads > 1) {
    pool = std::make_unique<util::ThreadPool>(threads - 1);
    par.pool = pool.get();
  }
  std::uint64_t seed = 1;
  std::int64_t units = 0;
  for (auto _ : state) {
    const auto r = maxpower::estimate_max_power(pop, opt, seed++, par);
    units += static_cast<std::int64_t>(r.units_used);
    benchmark::DoNotOptimize(r.estimate);
  }
  state.SetItemsProcessed(units);
}

// Same pipeline with the observability layer fully on (global metrics
// registry enabled, a live tracer capturing every hyper-sample event):
// compare against BM_EstimatorPipeline/threads:1 to read the
// instrumentation overhead, which must stay within ~2%. Kept as a separate
// benchmark so the tracked BM_EstimatorPipeline series stays comparable
// across commits.
void BM_EstimatorPipelineInstrumented(benchmark::State& state) {
  const auto& nl = preset("c7552");
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = sim::DelayModel::kZero;
  sim::CyclePowerEvaluator eval(nl, eval_opt);
  const vec::UniformPairGenerator gen(nl.num_inputs());
  vec::StreamingPopulation pop(gen, eval);
  auto& reg = util::MetricRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.enable(true);
  std::uint64_t seed = 1;
  std::int64_t units = 0;
  for (auto _ : state) {
    util::Tracer tracer(4096);
    maxpower::EstimatorOptions opt;
    opt.tracer = &tracer;
    const auto r = maxpower::estimate_max_power(pop, opt, seed++, {});
    units += static_cast<std::int64_t>(r.units_used);
    benchmark::DoNotOptimize(r.estimate);
  }
  reg.enable(was_enabled);
  state.SetItemsProcessed(units);
}

// The raw cost of one enabled metric update and one trace event, for the
// overhead budget arithmetic in docs/OBSERVABILITY.md.
void BM_MetricCounterInc(benchmark::State& state) {
  util::MetricRegistry reg;
  reg.enable(true);
  util::Counter c = reg.counter("mpe_bench_total");
  for (auto _ : state) {
    c.inc();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TraceEvent(benchmark::State& state) {
  util::Tracer tracer(4096);
  const std::string fields = util::JsonFields{}.add("k", 1).body();
  for (auto _ : state) {
    tracer.event("bench", fields);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_WeibullMle(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const stats::ReversedWeibull g(3.0, 1.0, 10.0);
  Rng rng(3);
  std::vector<double> xs(m);
  for (auto& x : xs) x = g.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evt::fit_weibull_mle(xs).params.mu);
  }
}

// The fit stage as the pipeline runs it: default_tail_fitter() on m = 10
// maxima under raw_mle_options() (the HyperSampleOptions default). The
// endpoint path (streaming populations) adds ridge stabilization; the
// quantile path (finite populations) fits raw and maps to the 1 - 1/|V|
// quantile.
void BM_TailFitter(benchmark::State& state, bool endpoint) {
  const stats::ReversedWeibull g(3.0, 1.0, 10.0);
  Rng rng(3);
  std::vector<double> xs(10);
  for (auto& x : xs) x = g.sample(rng);
  const maxpower::HyperSampleOptions options;
  const maxpower::TailFitContext context{
      options, endpoint ? std::nullopt : std::optional<std::size_t>(100000)};
  const auto& fitter = maxpower::default_tail_fitter();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fitter.fit(xs, context).estimate);
  }
}

void BM_PwmFit(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const stats::ReversedWeibull g(3.0, 1.0, 10.0);
  Rng rng(3);
  std::vector<double> xs(m);
  for (auto& x : xs) x = g.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evt::fit_gev_pwm(xs).params.xi);
  }
}

void BM_HyperSample(benchmark::State& state) {
  const stats::ReversedWeibull g(3.0, 1.0, 10.0);
  Rng rng(9);
  std::vector<double> values(20000);
  for (auto& v : values) v = g.sample(rng);
  vec::FinitePopulation pop(std::move(values), "synthetic");
  maxpower::HyperSampleOptions opt;
  Rng draw_rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        maxpower::draw_hyper_sample(pop, opt, draw_rng).estimate);
  }
}

void BM_StudentTCritical(benchmark::State& state) {
  double k = 2.0;
  for (auto _ : state) {
    const stats::StudentT t(k);
    benchmark::DoNotOptimize(t.two_sided_critical(0.9));
    k = k >= 100.0 ? 2.0 : k + 1.0;
  }
}

// Coordinator control-plane overhead per job: drive the shard-lease state
// machine through request -> shard grant -> shard result (sample payload
// decode, coverage validation, sealed shard append) -> assembly replay ->
// sealed job record, for every job of an n-job campaign (message
// encode/decode included, sockets excluded). This is the scheduling tax a
// distributed campaign pays on top of the shards themselves; per-item time
// must stay negligible against a real shard's compute.
void BM_ShardScheduling(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<maxpower::CampaignJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].name = "job-" + std::to_string(i);
    jobs[i].circuit = "c432";
    jobs[i].seed = i + 1;
  }
  // Identical estimates converge at the 3rd accepted sample, so one done
  // shard assembles straight to a terminal job record.
  std::vector<maxpower::ShardSample> samples(8);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].index = i;
    samples[i].estimate = 5.0;
    samples[i].units = 100;
    samples[i].valid = true;
    samples[i].mle_converged = true;
  }
  const std::string payload = maxpower::encode_shard_samples(samples);
  const std::string dir = "bench_shard_sched";
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    dist::CoordinatorConfig config;
    config.jobs = jobs;
    config.state_dir = dir;
    config.shard_size = 8;
    dist::CoordinatorCore core(std::move(config));
    const auto now = dist::CoordinatorCore::Clock::now();
    dist::Message request;
    request.kind = dist::MessageKind::kRequest;
    request.worker = "w0";
    for (std::size_t i = 0; i < n; ++i) {
      const dist::Message lease =
          dist::decode_message(core.handle(request, now));
      dist::Message result;
      result.kind = dist::MessageKind::kShardResult;
      result.worker = "w0";
      result.job = lease.job;
      result.shard = lease.shard;
      result.lo = lease.lo;
      result.hi = lease.hi;
      result.shard_status = maxpower::JobStatus::kDone;
      result.samples = payload;
      benchmark::DoNotOptimize(core.handle(result, now));
    }
    benchmark::DoNotOptimize(core.finished());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n * state.iterations()));
}

void BM_NormalQuantile(benchmark::State& state) {
  double q = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::Normal::std_quantile(q));
    q += 0.0001;
    if (q >= 0.999) q = 0.001;
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_ZeroDelayCycle, c432, std::string("c432"));
BENCHMARK_CAPTURE(BM_ZeroDelayCycle, c3540, std::string("c3540"));
BENCHMARK_CAPTURE(BM_ZeroDelayCycle, c7552, std::string("c7552"));
BENCHMARK_CAPTURE(BM_EventCycle, c432_inertial, std::string("c432"), true);
BENCHMARK_CAPTURE(BM_EventCycle, c3540_inertial, std::string("c3540"), true);
BENCHMARK_CAPTURE(BM_EventCycle, c3540_transport, std::string("c3540"),
                  false);
BENCHMARK_CAPTURE(BM_EventCycle, c7552_inertial, std::string("c7552"), true);
BENCHMARK_CAPTURE(BM_EventCycle, c1355_inertial, std::string("c1355"), true);
BENCHMARK_CAPTURE(BM_EventCycle, c2670_inertial, std::string("c2670"), true);
BENCHMARK_CAPTURE(BM_EventBatch, c1355_inertial, std::string("c1355"), true);
BENCHMARK_CAPTURE(BM_EventBatch, c2670_inertial, std::string("c2670"), true);
BENCHMARK_CAPTURE(BM_EventBatch, c3540_transport, std::string("c3540"),
                  false);
BENCHMARK_CAPTURE(BM_CompiledBatch, c7552_scalar64, std::string("c7552"),
                  sim::SimdKernel::kScalar64);
BENCHMARK_CAPTURE(BM_CompiledBatch, c7552_avx2x256, std::string("c7552"),
                  sim::SimdKernel::kAvx2x256);
BENCHMARK_CAPTURE(BM_CompiledBatch, c7552_avx512x512, std::string("c7552"),
                  sim::SimdKernel::kAvx512x512);
BENCHMARK_CAPTURE(BM_ScalarDraw, c7552, std::string("c7552"));
BENCHMARK_CAPTURE(BM_CompiledDrawBatch, c7552, std::string("c7552"),
                  std::string("uniform"));
BENCHMARK_CAPTURE(BM_CompiledDrawBatch, c7552_tprob, std::string("c7552"),
                  std::string("tprob"));
BENCHMARK_CAPTURE(BM_PairGen, uniform, std::string("uniform"));
BENCHMARK_CAPTURE(BM_PairGen, tprob, std::string("tprob"));
BENCHMARK_CAPTURE(BM_PairGen, highact, std::string("highact"));
BENCHMARK_CAPTURE(BM_PairGen, markov, std::string("markov"));
BENCHMARK_CAPTURE(BM_PairRows, uniform, std::string("uniform"));
BENCHMARK_CAPTURE(BM_PairRows, tprob, std::string("tprob"));
BENCHMARK(BM_EstimatorPipeline)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_EstimatorPipelineInstrumented)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_MetricCounterInc);
BENCHMARK(BM_TraceEvent);
BENCHMARK(BM_WeibullMle)->Arg(10)->Arg(50)->Arg(500);
BENCHMARK_CAPTURE(BM_TailFitter, endpoint, true);
BENCHMARK_CAPTURE(BM_TailFitter, quantile, false);
BENCHMARK(BM_PwmFit)->Arg(10)->Arg(50)->Arg(500);
BENCHMARK(BM_HyperSample);
BENCHMARK(BM_StudentTCritical);
BENCHMARK(BM_NormalQuantile);
BENCHMARK(BM_ShardScheduling)->Arg(64)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
