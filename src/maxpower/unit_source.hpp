// UnitSource — the engine's draw layer. One batched interface in front of
// every way the estimator can obtain per-unit power values: materialized
// finite populations, streaming (simulate-per-draw) populations, and any
// decorator stacked on them (fault injection, delay adapters). The engine
// and the hyper-sample pipeline only ever see this interface, so adding a
// new value source — a remote simulation service, a replayed trace, a mock —
// is one subclass, not another estimator branch.
//
// Contract (inherited from vec::Population::draw_batch): fill() must consume
// the RNG in exactly the same order as the equivalent sequence of scalar
// draws, so *how* a source computes values can never change *which* values
// a seeded run sees.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "util/rng.hpp"
#include "vectors/population.hpp"

namespace mpe::maxpower {

/// Batched source of per-unit values for the estimation engine.
class UnitSource {
 public:
  virtual ~UnitSource() = default;

  /// Fills `out` with out.size() fresh unit values. May throw mpe::Error on
  /// unrecoverable draw failures; the engine converts that into a
  /// StopReason::kDataFault partial result.
  virtual void fill(std::span<double> out, Rng& rng) = 0;

  /// True when fill() may run concurrently from multiple threads (each with
  /// its own Rng). When this is false the engine's caller draws every
  /// hyper-sample alone — same result, no draw-side speedup.
  virtual bool concurrent_fill_safe() const { return false; }

  /// |V| when the underlying population is finite; nullopt when unbounded.
  /// Drives the finite-population quantile correction and the
  /// small-population diagnostic.
  virtual std::optional<std::size_t> population_size() const = 0;

  /// Human-readable description (run_config events, checkpoint
  /// fingerprints).
  virtual std::string description() const = 0;
};

/// Adapter: any vec::Population (finite, streaming, fault-injected, ...) as
/// a UnitSource. Non-owning — the population must outlive the adapter.
class PopulationUnitSource final : public UnitSource {
 public:
  explicit PopulationUnitSource(vec::Population& population)
      : population_(population) {}

  void fill(std::span<double> out, Rng& rng) override {
    population_.draw_batch(out, rng);
  }
  bool concurrent_fill_safe() const override {
    return population_.concurrent_draw_safe();
  }
  std::optional<std::size_t> population_size() const override {
    return population_.size();
  }
  std::string description() const override {
    return population_.description();
  }

  vec::Population& population() const { return population_; }

 private:
  vec::Population& population_;
};

}  // namespace mpe::maxpower
