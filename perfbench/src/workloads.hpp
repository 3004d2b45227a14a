// The benchmark's workloads. Each one is closed loop (one caller, the next
// op starts when the previous one returns), derives every input from the
// run's --seed, measures for --seconds, checks its outputs against an
// oracle, and fills a Result with either the end-to-end metrics (untraced)
// or the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "maxpower/estimator.hpp"
#include "report.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";  ///< checkout root: run files live under it
};

/// <root>/.bench_run, where traced runs write their spans; created on
/// demand.
std::string bench_dir(const Args& args);
/// A directory under bench_dir() private to this process, for state the
/// run removes again before it exits.
std::string run_dir(const Args& args);

Result run_stream_zero(const Args& args);
Result run_table1_loaded(const Args& args);
Result run_serve_fleet(const Args& args);

/// Per-layer values of one traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Adds every per-layer metric, in BENCHMARK.json order, to `result`; a
/// layer the workload never calls reads 0. Throws on a name that is not a
/// per-layer metric, so a typo cannot silently drop a value.
void add_layer_metrics(Result& result, const LayerValues& values);

/// True when two runs produced the same estimate bit for bit.
bool bit_identical(const mpe::maxpower::EstimationResult& a,
                   const mpe::maxpower::EstimationResult& b);

}  // namespace perfbench
