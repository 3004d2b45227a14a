// Populations: the set V of the paper. A population yields per-unit cycle
// power values; the estimators never see vectors or netlists, only draws
// from a population — which is what makes the method simulator-agnostic.
//
// Two concrete kinds:
//   * FinitePopulation — |V| pre-simulated values (the paper's experimental
//     setup: 160k/80k units fully simulated, true maximum known);
//   * StreamingPopulation — unbounded: each draw generates a fresh vector
//     pair and simulates it (category I.1/I.2 in production use, where the
//     true maximum is unknown).
//
// Batched draws: the estimation hot path pulls units through draw_batch(),
// which consumes the RNG in exactly the same order as the equivalent
// sequence of scalar draw() calls — so batching is purely a performance
// choice, never a statistical one. A StreamingPopulation routes batches
// through the fast simulator of its delay model (a PowerBatcher): the
// compiled wide-SIMD gate tape under zero delay, 64 to 512 units per tape
// pass, and the 64-lane event simulator under unit or loaded delay.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/batch_event_sim.hpp"
#include "sim/cpu_dispatch.hpp"
#include "sim/power_eval.hpp"
#include "sim/simd_sim.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"

namespace mpe::vec {

/// Batched simulation state: the fast simulator of a delay model plus
/// reusable pair and result buffers, so steady-state passes allocate
/// nothing. Under zero delay it is the compiled gate tape on
/// sim::best_kernel(), 64/256/512 pairs per pass, fed packed rows that the
/// generator draws on the kernel's lanes; under unit or loaded delay the
/// 64-lane sim::BatchEventSimulator. Every value equals
/// sim::CyclePowerEvaluator::power_mw on the same pair and options, bit for
/// bit. One per thread.
class PowerBatcher {
 public:
  /// Under zero delay, adopts `program` — which must have been compiled from
  /// this netlist and technology — or compiles the tape when it is null.
  /// Any other delay model requires a null `program`.
  PowerBatcher(const circuit::Netlist& netlist,
               const sim::PowerEvalOptions& options,
               std::shared_ptr<const sim::GateProgram> program = nullptr);

  /// Generates out.size() pairs from `generator` — the RNG stream of as
  /// many generator.generate() calls — and writes their cycle power, a
  /// simulator pass at a time.
  void simulate(const PairGenerator& generator, Rng& rng,
                std::span<double> out);

  /// The SIMD kernel under zero delay; nullopt under event timing.
  std::optional<sim::SimdKernel> kernel() const;

 private:
  std::variant<sim::CompiledSimulator, sim::BatchEventSimulator> sim_;
  PairRows rows_;                   // zero delay
  std::vector<VectorPair> pairs_;   // event timing
  std::vector<sim::CycleResult> results_;
};

/// Source of per-unit power values.
class Population {
 public:
  virtual ~Population() = default;

  /// Draws the power value of one randomly selected unit.
  virtual double draw(Rng& rng) = 0;

  /// Fills `out` with out.size() draws. Guaranteed to consume `rng` in the
  /// same order as out.size() scalar draw() calls, so scalar and batched
  /// paths yield identical value streams for the same seed. Overrides may
  /// only change *how* the values are computed, not *which* values.
  virtual void draw_batch(std::span<double> out, Rng& rng) {
    for (double& v : out) v = draw(rng);
  }

  /// True when draw_batch() may be called concurrently from multiple
  /// threads (each with its own Rng). The parallel estimator falls back to
  /// sequential drawing when this is false.
  virtual bool concurrent_draw_safe() const { return false; }

  /// |V| when finite; nullopt for streaming populations.
  virtual std::optional<std::size_t> size() const = 0;

  /// Human-readable description.
  virtual std::string description() const = 0;
};

/// Materialized finite population with known ground truth.
class FinitePopulation final : public Population {
 public:
  FinitePopulation(std::vector<double> values, std::string description);

  double draw(Rng& rng) override;
  void draw_batch(std::span<double> out, Rng& rng) override;
  /// Draws are index lookups into immutable storage: trivially concurrent.
  bool concurrent_draw_safe() const override { return true; }
  std::optional<std::size_t> size() const override { return values_.size(); }
  std::string description() const override { return desc_; }

  /// The population's actual maximum power — the paper's omega(F).
  double true_max() const { return true_max_; }

  /// Fraction of "qualified units": values within `epsilon` of the maximum
  /// (the Y of the paper's SRS analysis).
  double qualified_fraction(double epsilon) const;

  /// All values (for diagnostics and figure benches).
  std::span<const double> values() const { return values_; }

 private:
  std::vector<double> values_;
  std::string desc_;
  double true_max_ = 0.0;
};

/// Unbounded population: simulate a fresh random unit per draw.
///
/// draw_batch evaluates on the fast simulator of the evaluator's delay
/// model: the compiled gate tape with sim::best_kernel() under zero delay,
/// up to 64/256/512 units per tape pass, and the 64-lane event simulator
/// under unit or loaded delay. draw() is always the scalar reference stream
/// through the borrowed evaluator, and every draw_batch value equals it bit
/// for bit.
class StreamingPopulation final : public Population {
 public:
  /// Borrows the generator and evaluator; both must outlive this object.
  /// Under zero delay the population adopts `program` — which must have been
  /// compiled from this netlist and technology (the server's circuit cache
  /// keys its tapes by circuit content to guarantee it) — or compiles the
  /// tape itself when `program` is null. Any other delay model requires a
  /// null `program`. The first simulation slot is built here, so a bad
  /// netlist fails in the constructor, not inside a worker thread.
  StreamingPopulation(const PairGenerator& generator,
                      sim::CyclePowerEvaluator& evaluator,
                      std::shared_ptr<const sim::GateProgram> program =
                          nullptr);
  ~StreamingPopulation() override;

  double draw(Rng& rng) override;
  void draw_batch(std::span<double> out, Rng& rng) override;
  /// Batched draws are concurrent-safe: each call checks a simulation slot
  /// (a PowerBatcher) out of an internal freelist, so independent threads
  /// simulate on private state. Scalar draw() shares the borrowed evaluator
  /// and stays single-threaded.
  bool concurrent_draw_safe() const override { return true; }
  std::optional<std::size_t> size() const override { return std::nullopt; }
  /// streaming_description() of this population's circuit, generator and
  /// delay model.
  std::string description() const override;

  /// Kernel evaluating tape batches under zero delay; nullopt under event
  /// timing.
  std::optional<sim::SimdKernel> kernel() const { return kernel_; }

  /// Units simulated so far.
  std::size_t draws() const {
    return draws_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<PowerBatcher> acquire_slot();
  void release_slot(std::unique_ptr<PowerBatcher> slot);
  std::unique_ptr<PowerBatcher> make_slot() const;

  const PairGenerator& generator_;
  sim::CyclePowerEvaluator& evaluator_;
  /// The shared immutable tape under zero delay; null under event timing.
  std::shared_ptr<const sim::GateProgram> program_;
  std::optional<sim::SimdKernel> kernel_;
  /// Idle simulation slots; one is checked out per concurrent draw_batch
  /// call, so the list grows to the peak thread count.
  std::mutex sim_mutex_;
  std::vector<std::unique_ptr<PowerBatcher>> idle_slots_;
  std::atomic<std::size_t> draws_{0};
};

/// The description of a streaming population: its circuit, its generator
/// and its delay model — what decides its values — but never the evaluation
/// path. Seeded values are the same on every kernel, so a checkpoint, whose
/// fingerprint folds this string in, resumes across hosts, while a run under
/// another delay model is refused. Unit and loaded delay carry the revision
/// of their energy summation order ("energy order 2": within a timestamp, a
/// unit's toggles are summed in ascending node id), so checkpoints of the
/// earlier order are refused; zero delay carries none.
std::string streaming_description(const std::string& circuit,
                                  const PairGenerator& generator,
                                  sim::DelayModel delay);

}  // namespace mpe::vec
