#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "sim/cpu_dispatch.hpp"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size()) - 1;
  return v[idx];
}

Tail tail_latency(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.size() > 10) {
    // Nearest rank n - 10: exactly ten samples lie beyond it.
    t.percentile = 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    t.value = sorted[v.size() - 11];
  } else {
    t.percentile = 50.0;
    t.value = median(v);
  }
  return t;
}

std::string Tail::label() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%.2f", percentile);
  return buf;
}

std::string setup_note(const std::vector<double>& setup_s) {
  std::string out = "setup_s: median of " + std::to_string(setup_s.size()) +
                    " set-ups:";
  char buf[32];
  for (const double s : setup_s) {
    std::snprintf(buf, sizeof buf, " %.4f", s);
    out += buf;
  }
  return out;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> cycle_order(std::uint64_t seed, std::size_t n,
                                     std::size_t cycle) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[mix(seed, cycle * n + i) % i]);
  }
  return order;
}

double peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Result::fail_check(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

bool optimised_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string context_line() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "context: nproc=%ld loadavg=%.2f,%.2f,%.2f kernel=%s "
                "build=%s optimised=%s",
                sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2],
                mpe::sim::to_string(mpe::sim::best_kernel()),
                PERFBENCH_BUILD_TYPE, optimised_build() ? "yes" : "no");
  return buf;
}

void print_result(const std::string& workload, const Result& result) {
  std::printf("workload: %s\n", workload.c_str());
  for (const auto& n : result.notes) std::printf("%s\n", n.c_str());
  for (const auto& m : result.metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-36s %16.6f ratio (%zu of %zu ops)\n", "failed_ratio",
              result.attempted == 0
                  ? 1.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              result.failed, result.attempted);
  std::ostringstream js;
  js << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
