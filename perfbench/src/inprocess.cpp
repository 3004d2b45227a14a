// The two in-process workloads, stream_zero and table1_loaded. Both run
// Engine::run(population, seed, pool) in a closed loop over a fixed catalog
// of (circuit, estimate seed) ops and differ in how their populations are
// built and how their outputs are checked.
//
// A run visits the whole catalog in cycles, each in an order drawn from
// --seed, until --seconds have passed. Every cycle does the same work, so
// the rates are taken from the median cycle time: a neighbour's burst on a
// shared host slows a few cycles, not the figure. The estimate seeds are
// fixed because the stopping rule makes the units per estimate vary several
// fold by seed; a catalog drawn from --seed moved units per estimate by a
// few percent between runs.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "gen/presets.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/engine.hpp"
#include "probes.hpp"
#include "sim/gate_program.hpp"
#include "sim/power_eval.hpp"
#include "util/thread_pool.hpp"
#include "vectors/parallel_db.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mpe::maxpower::EstimationResult;

// Estimate seeds of the catalog and the warm-ups; fixed, see above.
constexpr std::uint64_t kCatalogSeed = 7;

// Compute participants (caller + one pool worker). On a shared 4-vCPU host,
// 4-thread runs of the same estimates spread ~2x between runs; 1-thread runs
// of table1_loaded swung 1.5x with the speed of the one vCPU they ran on.
constexpr unsigned kParticipants = 2;

struct Circuit {
  std::string name;
  mpe::vec::Population* population = nullptr;
  double true_max = 0.0;  ///< > 0 when the population is finite
};

/// Everything the timed loop runs against; built once per set-up.
struct Setup {
  std::vector<Circuit> circuits;
  std::vector<std::shared_ptr<void>> keepalive;
  std::unique_ptr<mpe::util::ThreadPool> pool;
  double build_s = 0.0;      ///< population build (table1_loaded)
  double build_units = 0.0;  ///< units simulated by that build
};

struct Workload {
  const char* name;
  int setups;  ///< set-ups per run; setup_s is their median
  std::size_t catalog;  ///< ops per cycle; op k runs circuit k % circuits
  mpe::maxpower::CampaignJob job;  ///< engine options for every op
  std::function<void(Setup&)> build;
  /// Oracle for one op: true when the output is correct.
  std::function<bool(const Circuit&, const EstimationResult&)> check;
  /// stream_zero: re-run a fixed subset at 1 thread and demand bit identity.
  bool rerun_oracle = false;
  /// Traced run only: direct timed calls into the layers set-up uses.
  std::function<void(const Setup&, LayerValues&)> probe;
};

std::uint64_t op_seed(std::size_t k) { return mix(kCatalogSeed, 1000 + k); }

mpe::maxpower::ParallelOptions parallel(const Setup& setup) {
  mpe::maxpower::ParallelOptions par;
  par.pool = setup.pool.get();
  return par;
}

struct Pass {
  std::vector<EstimationResult> results;  ///< per catalog op, first cycle
  /// Per catalog op, its latency in every cycle.
  std::vector<std::vector<double>> latency_ms;
  std::vector<double> cycle_s;  ///< wall time of each cycle
  std::size_t ops = 0;
  std::size_t failed = 0;  ///< op runs the oracle rejected
  /// Op runs whose result differs from the same op's first-cycle result.
  std::size_t repeat_mismatches = 0;

  double cycle_median_s() const { return median(cycle_s); }
  /// Each catalog op's median latency over the cycles: a host hiccup
  /// during one run of an op does not move it.
  std::vector<double> op_latency_ms() const {
    std::vector<double> out;
    for (const auto& runs : latency_ms) out.push_back(median(runs));
    return out;
  }
  double busy_s() const {
    double ms = 0.0;
    for (const auto& runs : latency_ms) {
      ms = std::accumulate(runs.begin(), runs.end(), ms);
    }
    return ms / 1e3;
  }
};

/// Runs whole catalog cycles until `seconds` have passed (or exactly
/// `cycles` of them when cycles > 0). With a span log, every op goes
/// through the timing decorators.
Pass run_pass(const Args& args, const Workload& w, const Setup& setup,
              const mpe::maxpower::Engine& engine, double seconds,
              std::size_t cycles, SpanLog* log) {
  const auto par = parallel(setup);
  Pass pass;
  pass.results.resize(w.catalog);
  pass.latency_ms.resize(w.catalog);
  const auto t0 = Clock::now();
  for (std::size_t cycle = 0;; ++cycle) {
    if (cycles > 0 ? cycle >= cycles : seconds_since(t0) >= seconds) break;
    const auto c0 = Clock::now();
    for (const std::size_t k : cycle_order(args.seed, w.catalog, cycle)) {
      const Circuit& circuit = setup.circuits[k % setup.circuits.size()];
      const auto start = Clock::now();
      EstimationResult r;
      if (log == nullptr) {
        r = engine.run(*circuit.population, op_seed(k), par);
      } else {
        const std::uint64_t op = pass.ops;
        log->current_op = op;
        const std::int64_t s0 = log->now_ns();
        mpe::maxpower::PopulationUnitSource inner(*circuit.population);
        TimedUnitSource source(inner, *log);
        r = engine.run(source, op_seed(k), par);
        log->record(op, "maxpower.run", "op", s0, log->now_ns());
      }
      pass.latency_ms[k].push_back(seconds_since(start) * 1e3);
      ++pass.ops;
      if (!r.converged || !w.check(circuit, r)) ++pass.failed;
      if (cycle == 0) {
        pass.results[k] = std::move(r);
      } else if (!bit_identical(r, pass.results[k])) {
        ++pass.repeat_mismatches;
      }
    }
    pass.cycle_s.push_back(seconds_since(c0));
  }
  return pass;
}

double sum_units(const std::vector<EstimationResult>& results) {
  double units = 0.0;
  for (const auto& r : results) units += static_cast<double>(r.units_used);
  return units;
}

Result run_in_process(const Args& args, const Workload& w) {
  Result result;
  const auto config = mpe::maxpower::campaign_engine_config(w.job);
  const mpe::maxpower::Engine engine(config);
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < w.setups; ++i) {
    setup = Setup{};  // the previous set-up is torn down outside the timing
    const auto t0 = Clock::now();
    w.build(setup);
    setup.pool = std::make_unique<mpe::util::ThreadPool>(kParticipants - 1);
    // One warm-up estimate per circuit, on fixed seeds outside the catalog.
    for (std::size_t c = 0; c < setup.circuits.size(); ++c) {
      engine.run(*setup.circuits[c].population, mix(kCatalogSeed, 900 + c),
                 parallel(setup));
    }
    setup_s.push_back(seconds_since(t0));
  }

  // Trace mode measures the untraced loop for half the time, then replays
  // the same cycles through the decorators.
  const Pass pass = run_pass(args, w, setup, engine,
                             args.trace ? args.seconds / 2 : args.seconds, 0,
                             nullptr);
  result.attempted = pass.ops;
  result.failed = pass.failed + pass.repeat_mismatches;
  result.note("oracle: " + std::to_string(pass.cycle_s.size()) +
              " cycles of " + std::to_string(w.catalog) + " ops, " +
              std::to_string(pass.repeat_mismatches) +
              " repeats differ from the first cycle");

  std::size_t within = 0;
  for (std::size_t k = 0; k < w.catalog; ++k) {
    const auto& c = setup.circuits[k % setup.circuits.size()];
    if (c.true_max > 0.0 && std::abs(pass.results[k].estimate - c.true_max) <=
                                w.job.epsilon * c.true_max) {
      ++within;
    }
  }
  if (w.rerun_oracle) {
    // A fixed subset of the catalog, re-run at 1 thread.
    std::size_t checked = 0, mismatched = 0;
    for (std::size_t k = 0; k < w.catalog; k += 4) {
      const auto& c = setup.circuits[k % setup.circuits.size()];
      ++checked;
      if (!bit_identical(engine.run(*c.population, op_seed(k)),
                         pass.results[k])) {
        ++mismatched;
      }
    }
    result.failed += mismatched;
    result.note("oracle: " + std::to_string(checked) +
                " ops re-run at 1 thread, " + std::to_string(mismatched) +
                " differ");
  }
  if (setup.circuits.front().true_max > 0.0) {
    const double ratio =
        static_cast<double>(within) / static_cast<double>(w.catalog);
    result.note("within_eps_ratio: " + std::to_string(ratio) + " (" +
                std::to_string(within) + " of " + std::to_string(w.catalog) +
                " catalog estimates within epsilon of the true max)");
    // At 90% confidence most estimates land within epsilon; a much lower
    // share means the estimator or the population is broken.
    if (ratio < 0.4) result.fail_check("within_eps_ratio below 0.4");
  }
  if (pass.cycle_s.empty()) result.fail_check("no cycle completed");
  if (result.failed > 0) result.fail_check("failed ops");

  const double catalog = static_cast<double>(w.catalog);
  const double units = sum_units(pass.results);  // per cycle
  const double rate = catalog / pass.cycle_median_s();
  if (!args.trace) {
    const auto latency = pass.op_latency_ms();
    const Tail tail = tail_latency(latency);
    result.note("rates: median of " + std::to_string(pass.cycle_s.size()) +
                " cycle times; latencies: each op's median over the cycles, "
                "latency_tail_ms is " + tail.label() + " of " +
                std::to_string(tail.samples) + " ops");
    result.note(setup_note(setup_s));
    result.add("setup_s", median(setup_s), "s");
    result.add("estimates_per_s", rate, "1/s");
    result.add("units_per_s", units / pass.cycle_median_s(), "1/s");
    result.add("units_per_estimate", units / catalog, "count");
    result.add("latency_p50_ms", median(latency), "ms");
    result.add("latency_tail_ms", tail.value, "ms");
    result.add("peak_rss_mb", peak_rss_mb(::getpid()), "MiB");
    return result;
  }

  // Traced replay of the same cycles.
  SpanLog log;
  auto traced_config = config;
  traced_config.fitter = std::make_shared<TimedFitter>(log);
  const mpe::maxpower::Engine traced_engine(traced_config);
  reset_probe_counters();
  const Pass traced = run_pass(args, w, setup, traced_engine, 0.0,
                               pass.cycle_s.size(), &log);
  std::size_t identical = 0;
  for (std::size_t k = 0; k < w.catalog; ++k) {
    if (bit_identical(traced.results[k], pass.results[k])) ++identical;
  }
  const std::size_t differ =
      w.catalog - identical + traced.repeat_mismatches;
  if (differ > 0) {
    result.failed += differ;
    result.fail_check("traced estimates differ from untraced ones");
  }

  LayerValues v;
  const double run_s = traced.busy_s();
  const double draw_s = static_cast<double>(TimedUnitSource::fill_ns) / 1e9;
  const double fit_s = static_cast<double>(TimedFitter::fit_ns) / 1e9;
  const double filled = static_cast<double>(TimedUnitSource::units);
  const double calls = static_cast<double>(TimedFitter::calls);
  double hyper = 0.0;
  for (const auto& r : traced.results) {
    hyper += static_cast<double>(r.hyper_samples);
  }
  const double cycles = static_cast<double>(traced.cycle_s.size());
  v["vectors.draw_s"] = draw_s;
  v["vectors.draw_units"] = filled;
  v["vectors.useful_ratio"] = filled > 0 ? units * cycles / filled : 0.0;
  v["evt.fit_s"] = fit_s;
  v["evt.fit_calls"] = calls;
  v["evt.fit_us_p50"] = median(log.durations_us("evt.fit"));
  v["evt.degenerate_ratio"] =
      calls > 0 ? static_cast<double>(TimedFitter::degenerate) / calls : 0.0;
  v["maxpower.run_s"] = run_s;
  v["maxpower.hyper_samples_per_estimate"] = hyper / catalog;
  v["util.pool_idle_ratio"] =
      1.0 - (draw_s + fit_s) / (run_s * kParticipants);
  const double traced_rate = catalog / traced.cycle_median_s();
  v["trace.untraced_estimates_per_s"] = rate;
  v["trace.traced_estimates_per_s"] = traced_rate;
  v["trace.overhead_pct"] = (rate - traced_rate) / rate * 100;
  v["trace.bit_identical_ratio"] = static_cast<double>(identical) / catalog;
  w.probe(setup, v);
  add_layer_metrics(result, v);

  const std::string spans =
      bench_dir(args) + "/spans_" + std::string(w.name) + ".jsonl";
  if (!log.write(spans)) result.fail_check("cannot write " + spans);
  result.note("spans written to " + spans);
  return result;
}

mpe::maxpower::CampaignJob job_template() {
  mpe::maxpower::CampaignJob job;
  job.name = "perfbench";
  job.epsilon = 0.05;
  job.confidence = 0.90;
  return job;
}

// Netlists and populations are the same in every run: with --seed choosing
// them too, one population's sparse tail moved units per estimate by 1.8x
// between seeds.
constexpr std::uint64_t kCircuitSeed = 1;
constexpr std::uint64_t kPopulationSeed = 1;

}  // namespace

Result run_stream_zero(const Args& args) {
  // Wide-input c7552 spends its time generating pairs; deep c6288 in the
  // compiled kernel.
  static const std::vector<std::string> kCircuits = {"c7552", "c6288"};
  Workload w;
  w.name = "stream_zero";
  w.setups = 21;  // ~20 ms each
  w.catalog = 128;  // ~1 s per cycle
  w.job = job_template();
  w.job.delay = "zero";
  w.rerun_oracle = true;
  w.build = [&](Setup& s) {
    for (std::size_t c = 0; c < kCircuits.size(); ++c) {
      auto job = w.job;
      job.circuit = kCircuits[c];
      job.seed = kCircuitSeed;
      auto rt = mpe::maxpower::build_campaign_runtime(job);
      s.circuits.push_back({kCircuits[c], rt.population, 0.0});
      s.keepalive.push_back(std::move(rt.keepalive));
    }
  };
  w.check = [](const Circuit&, const EstimationResult& r) {
    return std::isfinite(r.estimate) && r.estimate > 0.0;
  };
  w.probe = [&](const Setup&, LayerValues& v) {
    double build_s = 0, compile_s = 0, pairgen = 0, kernel = 0;
    for (std::size_t c = 0; c < kCircuits.size(); ++c) {
      auto t0 = Clock::now();
      const auto netlist =
          mpe::gen::build_preset(kCircuits[c], kCircuitSeed);
      build_s += seconds_since(t0);
      t0 = Clock::now();
      mpe::sim::GateProgram::compile(netlist,
                                     mpe::sim::PowerEvalOptions{}.tech);
      compile_s += seconds_since(t0);
      const mpe::vec::TransitionProbPairGenerator generator(
          netlist.num_inputs(), w.job.tprob);
      pairgen += pairgen_ns_per_unit(generator, 50000, args.seed);
      kernel += kernel_ns_per_unit(netlist, generator, 50000, args.seed);
    }
    const double n = static_cast<double>(kCircuits.size());
    v["gen.build_s"] = build_s;
    v["sim.compile_s"] = compile_s;
    v["vectors.pairgen_ns_per_unit"] = pairgen / n;
    v["sim.kernel_ns_per_unit"] = kernel / n;
  };
  return run_in_process(args, w);
}

Result run_table1_loaded(const Args& args) {
  // A narrow, deep error-correcting circuit (41 inputs) and a wide one (233
  // inputs), simulated with the default loaded-delay inertial event
  // simulator.
  static const std::vector<std::string> kCircuits = {"c1355", "c2670"};
  constexpr std::size_t kPopulation = 8192;
  constexpr double kActivity = 0.3;
  Workload w;
  w.name = "table1_loaded";
  w.setups = 5;  // ~1.4 s each
  w.catalog = 256;  // ~0.7 s per cycle
  w.job = job_template();
  w.build = [&](Setup& s) {
    for (std::size_t c = 0; c < kCircuits.size(); ++c) {
      auto netlist = std::make_shared<mpe::circuit::Netlist>(
          mpe::gen::build_preset(kCircuits[c], kCircuitSeed));
      const mpe::vec::HighActivityPairGenerator generator(
          netlist->num_inputs(), kActivity);
      mpe::vec::ParallelPowerDbOptions db;
      db.population_size = kPopulation;
      db.seed = kPopulationSeed;
      db.threads = kParticipants;
      const auto t0 = Clock::now();
      auto pop = std::make_shared<mpe::vec::FinitePopulation>(
          mpe::vec::build_power_database_parallel(
              *netlist, generator, mpe::sim::PowerEvalOptions{}, db));
      s.build_s += seconds_since(t0);
      s.circuits.push_back({kCircuits[c], pop.get(), pop->true_max()});
      s.keepalive.push_back(std::move(pop));
      s.keepalive.push_back(std::move(netlist));
    }
    s.build_units = static_cast<double>(kPopulation * kCircuits.size());
  };
  // Estimates outside epsilon are expected (within_eps_ratio counts them):
  // on 8192-unit populations the worst of ~1000 runs is 20-30% off. One
  // off by more than 10 epsilon is wrong.
  w.check = [&](const Circuit& c, const EstimationResult& r) {
    return std::isfinite(r.estimate) &&
           std::abs(r.estimate - c.true_max) <= 10 * w.job.epsilon * c.true_max;
  };
  w.probe = [&](const Setup& s, LayerValues& v) {
    double build_s = 0, pairgen = 0, event = 0;
    for (std::size_t c = 0; c < kCircuits.size(); ++c) {
      const auto t0 = Clock::now();
      const auto netlist =
          mpe::gen::build_preset(kCircuits[c], kCircuitSeed);
      build_s += seconds_since(t0);
      const mpe::vec::HighActivityPairGenerator generator(
          netlist.num_inputs(), kActivity);
      pairgen += pairgen_ns_per_unit(generator, 20000, args.seed);
      event += event_ns_per_unit(netlist, generator, 1000, args.seed);
    }
    const double n = static_cast<double>(kCircuits.size());
    v["gen.build_s"] = build_s;
    v["vectors.pairgen_ns_per_unit"] = pairgen / n;
    v["sim.event_ns_per_unit"] = event / n;
    v["vectors.build_s"] = s.build_s;
    v["vectors.build_units_per_s"] = s.build_units / s.build_s;
  };
  return run_in_process(args, w);
}

}  // namespace perfbench
