// Seeded fault-injection harness: a Population decorator that corrupts a
// deterministic subset of draws. It exists so the robustness tests can prove
// a property no healthy population can exercise — that the estimator, at
// any thread count, never crashes, deadlocks, or silently folds a poisoned
// value into the mean, whatever the population throws at them.
//
// Faults fire on a global draw counter: draw number d (0-based, counted
// across all threads) is faulted when d >= start_index and
// (d - phase) % period == 0 for some installed FaultSpec. With a single
// consumer the schedule is exactly reproducible; under concurrent batches
// each batch claims a contiguous counter range, so the set of faulted draws
// stays deterministic per batch even though batch interleaving is not.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "vectors/population.hpp"

namespace mpe::vec {

/// What an injected fault does to the draw it fires on.
enum class FaultKind : std::uint8_t {
  kNan,       ///< value becomes quiet NaN
  kPosInf,    ///< value becomes +infinity
  kStuckAt,   ///< value becomes FaultSpec::stuck_value
  kThrow,     ///< the draw throws mpe::Error(ErrorCode::kFaultInjected)
  kSlowDraw,  ///< the draw sleeps FaultSpec::slow_micros before returning
};

/// One periodic fault stream.
struct FaultSpec {
  FaultKind kind = FaultKind::kNan;
  std::uint64_t period = 97;      ///< fire every period-th draw
  std::uint64_t phase = 0;        ///< offset within the period
  std::uint64_t start_index = 0;  ///< faults disabled before this draw count
  double stuck_value = 0.0;       ///< payload for kStuckAt
  std::uint64_t slow_micros = 0;  ///< sleep for kSlowDraw
};

/// Decorates a population with scheduled faults. Forwards size(),
/// concurrency and batching behavior to the inner population; the inner
/// population must outlive the decorator.
class FaultInjectingPopulation final : public Population {
 public:
  FaultInjectingPopulation(Population& inner, std::vector<FaultSpec> faults);

  double draw(Rng& rng) override;
  void draw_batch(std::span<double> out, Rng& rng) override;
  bool concurrent_draw_safe() const override {
    return inner_.concurrent_draw_safe();
  }
  std::optional<std::size_t> size() const override { return inner_.size(); }
  std::string description() const override;

  /// Faults fired so far (all kinds).
  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Total draws routed through the decorator so far.
  std::uint64_t draws() const {
    return counter_.load(std::memory_order_relaxed);
  }

 private:
  /// Applies every matching fault to draw number `index`; may throw or
  /// sleep. Returns the (possibly corrupted) value.
  double apply(double value, std::uint64_t index);

  Population& inner_;
  std::vector<FaultSpec> faults_;
  std::atomic<std::uint64_t> counter_{0};
  std::atomic<std::uint64_t> injected_{0};
};

}  // namespace mpe::vec
