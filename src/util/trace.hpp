// Structured run-event tracing for estimation runs.
//
// A Tracer is a bounded ring buffer of TraceEvents: named points ("this
// hyper-sample was accepted, here are its fit diagnostics") and spans
// (begin/end pairs collapsed into one event carrying wall-clock and CPU
// duration). The estimator writes into a Tracer handed in through
// EstimatorOptions; the JSONL run report (maxpower/run_report) serializes
// the buffer afterwards.
//
// Contracts:
//   * Zero-cost when disabled: a default-constructed Tracer has no buffer,
//     every emit path checks one flag and returns; spans skip the clock
//     reads entirely. A null Tracer* in options costs one pointer test.
//   * Never perturbs results: tracing reads clocks and copies numbers, it
//     never touches RNG streams or estimation control flow.
//   * Bounded: at most `capacity` events are retained (oldest evicted
//     first); `dropped()` reports how many were evicted so a report can say
//     "showing last N of M".
//   * Thread-safe: events may be emitted from pool workers; a mutex guards
//     the ring (emission is per hyper-sample, far off the
//     per-unit hot path).
//
// Event payloads are pre-rendered JSON fragments built with
// util::JsonFields, so the report writer never re-encodes them and the
// schema of each event name lives with the code that emits it (catalog in
// docs/OBSERVABILITY.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mpe::util {

/// One trace record. `seq` is assigned at emission and is strictly
/// increasing per tracer (including evicted events, so gaps reveal drops).
struct TraceEvent {
  std::uint64_t seq = 0;
  std::int64_t wall_ns = 0;  ///< emission time, relative to tracer creation
  std::int64_t dur_ns = -1;  ///< span wall duration; -1 for point events
  std::int64_t cpu_ns = -1;  ///< span thread-CPU duration; -1 if n/a
  std::string name;          ///< event name ("hyper_sample", "run", ...)
  std::string fields;        ///< JSON fragment `"k":v,...`, may be empty
};

class Tracer {
 public:
  /// Disabled tracer: every operation is a near-no-op.
  Tracer() = default;

  /// Enabled tracer retaining the most recent `capacity` events.
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return capacity_ > 0; }

  /// Emits a point event. `fields` is a pre-rendered JSON fragment
  /// (JsonFields::body()), stored verbatim.
  void event(std::string_view name, std::string fields = {});

  /// RAII span: construction samples wall + thread-CPU clocks, destruction
  /// emits one event with both durations. Obtained via Tracer::span().
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&&) = delete;
    ~Span() { finish(); }

    /// Attaches a payload to the span's end event (replaces any previous).
    void note(std::string fields) { fields_ = std::move(fields); }

    /// Emits the end event now (idempotent; destructor then no-ops).
    void finish();

   private:
    friend class Tracer;
    Span() = default;
    Tracer* tracer_ = nullptr;  ///< null: inert span
    std::string name_;
    std::string fields_;
    std::chrono::steady_clock::time_point wall_begin_{};
    std::int64_t cpu_begin_ns_ = -1;
  };

  /// Starts a span; returns an inert span when tracing is disabled (no
  /// clock reads). Begin and end must happen on the same thread for the
  /// CPU duration to be meaningful.
  Span span(std::string_view name);

  /// Snapshot of retained events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Total events ever emitted (retained + dropped).
  std::uint64_t total_events() const;

  /// Events evicted from the ring.
  std::uint64_t dropped() const;

 private:
  void push(std::string_view name, std::string fields, std::int64_t dur_ns,
            std::int64_t cpu_ns);

  std::size_t capacity_ = 0;
  std::chrono::steady_clock::time_point start_{};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  ///< ring_[seq % capacity_]
  std::uint64_t next_seq_ = 0;
};

/// Current thread's CPU time in nanoseconds; -1 when the platform cannot
/// report it. Used by spans and exposed for tests.
std::int64_t thread_cpu_now_ns();

}  // namespace mpe::util
