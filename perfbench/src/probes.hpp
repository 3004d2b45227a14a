// Per-layer probes for the traced run, built only from the library's public
// seams: decorators around UnitSource and TailFitter, and direct, timed
// calls into the layers' public functions. Nothing here changes a result —
// the decorators delegate every call unchanged, which the traced run checks
// by comparing its estimates bit for bit against the untraced ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "maxpower/tail_fitter.hpp"
#include "maxpower/unit_source.hpp"
#include "report.hpp"
#include "vectors/generators.hpp"

namespace perfbench {

/// In-memory span store. Spans of one op share its id; a span's parent is
/// the layer that called it ("op" for the engine run itself). Written out
/// once, when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::uint64_t op = 0;
    const char* name = "";
    const char* parent = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Nanoseconds since the log was created.
  std::int64_t now_ns() const;
  void record(std::uint64_t op, const char* name, const char* parent,
              std::int64_t start_ns, std::int64_t end_ns);
  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(const char* name) const;
  /// One JSON object per line. Returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

  /// The op the calling engine run belongs to; read by decorators running
  /// on pool threads (one closed-loop caller, so one op at a time).
  std::atomic<std::uint64_t> current_op{0};

 private:
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Times every fill() of the wrapped source and counts the units filled.
class TimedUnitSource final : public mpe::maxpower::UnitSource {
 public:
  TimedUnitSource(mpe::maxpower::UnitSource& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void fill(std::span<double> out, mpe::Rng& rng) override;
  bool concurrent_fill_safe() const override {
    return inner_.concurrent_fill_safe();
  }
  std::optional<std::size_t> population_size() const override {
    return inner_.population_size();
  }
  std::string description() const override { return inner_.description(); }

  static std::atomic<std::uint64_t> fill_ns;
  static std::atomic<std::uint64_t> units;

 private:
  mpe::maxpower::UnitSource& inner_;
  SpanLog& log_;
};

/// Delegates to default_tail_fitter() and times each fit.
class TimedFitter final : public mpe::maxpower::TailFitter {
 public:
  explicit TimedFitter(SpanLog& log) : log_(log) {}

  std::string_view name() const override {
    return mpe::maxpower::default_tail_fitter().name();
  }
  mpe::maxpower::TailFitOutcome fit(
      std::span<const double> maxima,
      const mpe::maxpower::TailFitContext& context) const override;

  static std::atomic<std::uint64_t> fit_ns;
  static std::atomic<std::uint64_t> calls;
  static std::atomic<std::uint64_t> degenerate;

 private:
  SpanLog& log_;
};

/// Resets the decorators' counters.
void reset_probe_counters();

/// Calibrations: direct calls into one layer's public function over
/// `units` generated inputs, in nanoseconds per unit.
double pairgen_ns_per_unit(const mpe::vec::PairGenerator& generator,
                           std::size_t units, std::uint64_t seed);
double kernel_ns_per_unit(const mpe::circuit::Netlist& netlist,
                          const mpe::vec::PairGenerator& generator,
                          std::size_t units, std::uint64_t seed);
double event_ns_per_unit(const mpe::circuit::Netlist& netlist,
                         const mpe::vec::PairGenerator& generator,
                         std::size_t units, std::uint64_t seed);

}  // namespace perfbench
