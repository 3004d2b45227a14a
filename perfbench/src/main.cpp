// The benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload stream_zero|table1_loaded|serve_fleet --seed N
//             --seconds S --trace 0|1 [--root DIR]
//
// --root is the checkout holding the sources (default "."): run files
// go under <root>/.bench_run and the fleet workload runs
// <root>/.bench_build/mpe_cli. perfbench/run.py builds and calls this.
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Order and units match BENCHMARK.json's per_layer list.
constexpr LayerSpec kLayers[] = {
    {"gen.build_s", "s"},
    {"sim.compile_s", "s"},
    {"vectors.draw_s", "s"},
    {"vectors.draw_units", "count"},
    {"vectors.useful_ratio", "ratio"},
    {"vectors.pairgen_ns_per_unit", "ns"},
    {"sim.kernel_ns_per_unit", "ns"},
    {"vectors.build_s", "s"},
    {"vectors.build_units_per_s", "1/s"},
    {"sim.event_ns_per_unit", "ns"},
    {"evt.fit_s", "s"},
    {"evt.fit_calls", "count"},
    {"evt.fit_us_p50", "us"},
    {"evt.degenerate_ratio", "ratio"},
    {"maxpower.run_s", "s"},
    {"maxpower.hyper_samples_per_estimate", "count"},
    {"util.pool_idle_ratio", "ratio"},
    {"server.admit_ms_p50", "ms"},
    {"dist.dispatch_ms_p50", "ms"},
    {"server.assemble_ms_p50", "ms"},
    {"dist.overhead_ms_p50", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.rejected", "count"},
    {"dist.shards_per_job", "count"},
    {"dist.shard_latency_ms_mean", "ms"},
    {"trace.untraced_estimates_per_s", "1/s"},
    {"trace.traced_estimates_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
    {"trace.bit_identical_ratio", "ratio"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload stream_zero|table1_loaded|"
               "serve_fleet --seed N --seconds S --trace 0|1 [--root DIR]\n");
  std::exit(2);
}

}  // namespace

namespace {

std::string make_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + dir);
  }
  return dir;
}

}  // namespace

std::string bench_dir(const Args& args) {
  return make_dir(args.root + "/.bench_run");
}

std::string run_dir(const Args& args) {
  return make_dir(bench_dir(args) + "/" + std::to_string(::getpid()));
}

void add_layer_metrics(Result& result, const LayerValues& values) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& spec : kLayers) known = known || name == spec.name;
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
  }
  for (const auto& spec : kLayers) {
    const auto it = values.find(spec.name);
    result.add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

bool bit_identical(const mpe::maxpower::EstimationResult& a,
                   const mpe::maxpower::EstimationResult& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (!same(a.estimate, b.estimate) || !same(a.ci.lower, b.ci.lower) ||
      !same(a.ci.upper, b.ci.upper) || a.units_used != b.units_used ||
      a.hyper_samples != b.hyper_samples || a.converged != b.converged ||
      a.hyper_values.size() != b.hyper_values.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.hyper_values.size(); ++i) {
    if (!same(a.hyper_values[i], b.hyper_values[i])) return false;
  }
  return true;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--root") {
        args.root = value;
      } else {
        usage();
      }
    } catch (const std::logic_error&) {
      usage();
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) usage();
  if (!optimised_build()) {
    std::fprintf(stderr, "perfbench: refusing to report from an unoptimised "
                         "build (build type %s)\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    Result result;
    if (args.workload == "stream_zero") {
      result = run_stream_zero(args);
    } else if (args.workload == "table1_loaded") {
      result = run_table1_loaded(args);
    } else if (args.workload == "serve_fleet") {
      result = run_serve_fleet(args);
    } else {
      usage();
    }
    result.notes.insert(result.notes.begin(), context_line());
    print_result(args.workload, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
