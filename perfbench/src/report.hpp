// Result assembly for the benchmark program: summary statistics, the run's
// reproducibility context, and the output contract — a human-readable block
// of every metric with its unit, then ONE JSON object as the last line of
// standard output.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
/// Value at percentile `p` (0..100), nearest-rank on the sorted sample.
double percentile(std::vector<double> v, double p);

/// The highest percentile that still has ten samples beyond it: the 11th
/// largest sample, p = 100 * (1 - 10/n). With 10 samples or fewer, the
/// median. The percentile is reported beside the value with the sample
/// count.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::string label() const;  ///< e.g. "p99.52"
};
Tail tail_latency(const std::vector<double>& v);

/// "median of N set-ups: a b c ..." for the notes.
std::string setup_note(const std::vector<double>& setup_s);

/// splitmix64 finalizer: derives the workload's inputs from --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// The order in which cycle `cycle` of a run visits an n-op catalog: a
/// Fisher-Yates permutation of 0..n-1 drawn from `seed`.
std::vector<std::size_t> cycle_order(std::uint64_t seed, std::size_t n,
                                     std::size_t cycle);

/// Peak resident set of `pid` in MiB (VmHWM), 0 when unreadable. VmHWM
/// starts afresh at exec, so it leaves out the launcher this process
/// replaced.
double peak_rss_mb(long pid);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured plus its verdict.
struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the JSON line
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Marks the run incorrect and records why.
  void fail_check(const std::string& why);
};

/// nproc, load average, compiled kernel and build type, one line.
std::string context_line();

/// True when perfbench was compiled with optimisation enabled.
bool optimised_build();

/// Prints the notes, one "name value unit" line per metric, the failure
/// ratio, and the JSON result line (last line of stdout).
void print_result(const std::string& workload, const Result& result);

}  // namespace perfbench
