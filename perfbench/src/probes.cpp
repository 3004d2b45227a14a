#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "sim/gate_program.hpp"
#include "sim/power_eval.hpp"
#include "sim/simd_sim.hpp"

namespace perfbench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void SpanLog::record(std::uint64_t op, const char* name, const char* parent,
                     std::int64_t start_ns, std::int64_t end_ns) {
  std::lock_guard lock(mutex_);
  spans_.push_back({op, name, parent, start_ns, end_ns});
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char line[256];
  for (const auto& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"op\":%llu,\"span\":\"%s\",\"parent\":\"%s\","
                  "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                  static_cast<unsigned long long>(s.op), s.name, s.parent,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out << line;
  }
  return static_cast<bool>(out);
}

std::atomic<std::uint64_t> TimedUnitSource::fill_ns{0};
std::atomic<std::uint64_t> TimedUnitSource::units{0};
std::atomic<std::uint64_t> TimedFitter::fit_ns{0};
std::atomic<std::uint64_t> TimedFitter::calls{0};
std::atomic<std::uint64_t> TimedFitter::degenerate{0};

void TimedUnitSource::fill(std::span<double> out, mpe::Rng& rng) {
  const std::int64_t t0 = log_.now_ns();
  inner_.fill(out, rng);
  const std::int64_t t1 = log_.now_ns();
  fill_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                    std::memory_order_relaxed);
  units.fetch_add(out.size(), std::memory_order_relaxed);
  log_.record(log_.current_op.load(std::memory_order_relaxed),
              "vectors.fill", "maxpower.run", t0, t1);
}

mpe::maxpower::TailFitOutcome TimedFitter::fit(
    std::span<const double> maxima,
    const mpe::maxpower::TailFitContext& context) const {
  const std::int64_t t0 = log_.now_ns();
  auto outcome = mpe::maxpower::default_tail_fitter().fit(maxima, context);
  const std::int64_t t1 = log_.now_ns();
  fit_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                   std::memory_order_relaxed);
  calls.fetch_add(1, std::memory_order_relaxed);
  if (outcome.degenerate) degenerate.fetch_add(1, std::memory_order_relaxed);
  log_.record(log_.current_op.load(std::memory_order_relaxed), "evt.fit",
              "maxpower.run", t0, t1);
  return outcome;
}

void reset_probe_counters() {
  TimedUnitSource::fill_ns = 0;
  TimedUnitSource::units = 0;
  TimedFitter::fit_ns = 0;
  TimedFitter::calls = 0;
  TimedFitter::degenerate = 0;
}

namespace {

std::vector<mpe::vec::VectorPair> make_pairs(
    const mpe::vec::PairGenerator& generator, std::size_t units,
    std::uint64_t seed) {
  mpe::Rng rng(seed);
  std::vector<mpe::vec::VectorPair> pairs(units);
  for (auto& p : pairs) generator.generate_into(rng, p);
  return pairs;
}

/// Keeps a computed value alive so the timed loop cannot be optimised away.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double ns_per(Clock::time_point t0, std::size_t units) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(std::max<std::size_t>(1, units));
}

}  // namespace

double pairgen_ns_per_unit(const mpe::vec::PairGenerator& generator,
                           std::size_t units, std::uint64_t seed) {
  mpe::Rng rng(seed);
  mpe::vec::VectorPair pair;
  generator.generate_into(rng, pair);  // size the buffers outside the timing
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < units; ++i) {
    generator.generate_into(rng, pair);
    keep(pair.first.data());
  }
  return ns_per(t0, units);
}

double kernel_ns_per_unit(const mpe::circuit::Netlist& netlist,
                          const mpe::vec::PairGenerator& generator,
                          std::size_t units, std::uint64_t seed) {
  const auto program = mpe::sim::GateProgram::compile(
      netlist, mpe::sim::PowerEvalOptions{}.tech);
  mpe::sim::CompiledSimulator sim(program, mpe::sim::best_kernel());
  const auto pairs = make_pairs(generator, units, seed);
  std::vector<mpe::sim::CycleResult> out;
  const auto t0 = Clock::now();
  for (std::size_t at = 0; at < pairs.size(); at += sim.lanes()) {
    const std::size_t n = std::min(sim.lanes(), pairs.size() - at);
    sim.evaluate_batch(std::span(pairs).subspan(at, n), out);
    keep(out.data());
  }
  return ns_per(t0, pairs.size());
}

double event_ns_per_unit(const mpe::circuit::Netlist& netlist,
                         const mpe::vec::PairGenerator& generator,
                         std::size_t units, std::uint64_t seed) {
  mpe::sim::CyclePowerEvaluator evaluator(netlist);  // loaded delay, inertial
  const auto pairs = make_pairs(generator, units, seed);
  const auto t0 = Clock::now();
  for (const auto& p : pairs) keep(evaluator.power_mw(p.first, p.second));
  return ns_per(t0, pairs.size());
}

}  // namespace perfbench
