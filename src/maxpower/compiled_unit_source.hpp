// CompiledUnitSource — the engine-seam backend for the compiled gate tape.
// Where PopulationUnitSource adapts a vec::Population, this source owns the
// whole zero-delay draw pipeline directly: it lowers the netlist into a
// sim::GateProgram once at construction, then serves fill() by generating
// vector pairs and evaluating them lanes-at-a-time with the selected SIMD
// kernel. Concurrent fills check simulation slots (simulator + scratch
// buffers) out of a freelist, so the steady-state draw path performs no
// heap allocations and no shared-state writes.
//
// Value-stream contract: fill() draws one pair per unit, in unit order, with
// generator_.generate_into (the same RNG consumption as generate(), the
// scalar draw path's call), and the compiled kernels are bit-identical to
// the scalar oracle — so a seeded run produces the same estimate regardless
// of backend or lane width.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "maxpower/unit_source.hpp"
#include "sim/cpu_dispatch.hpp"
#include "sim/gate_program.hpp"
#include "sim/simd_sim.hpp"
#include "sim/technology.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"

namespace mpe::maxpower {

/// Streaming unit source over a compiled gate tape. Non-owning with respect
/// to the netlist and generator — both must outlive this object.
class CompiledUnitSource final : public UnitSource {
 public:
  /// Compiles the netlist once. Throws ContractViolation when the requested
  /// kernel is unavailable on this host (see sim::available_kernels()).
  CompiledUnitSource(const circuit::Netlist& netlist,
                     const vec::PairGenerator& generator,
                     sim::Technology tech,
                     sim::SimdKernel kernel = sim::best_kernel());
  ~CompiledUnitSource() override;

  void fill(std::span<double> out, Rng& rng) override;
  /// Always safe: each concurrent fill() owns a private simulation slot.
  bool concurrent_fill_safe() const override { return true; }
  std::optional<std::size_t> population_size() const override {
    return std::nullopt;
  }
  std::string description() const override;

  sim::SimdKernel kernel() const { return kernel_; }
  const sim::GateProgram& program() const { return *program_; }

  /// Units drawn so far (diagnostics).
  std::size_t draws() const;

 private:
  struct Slot;
  std::unique_ptr<Slot> acquire_slot();
  void release_slot(std::unique_ptr<Slot> slot);

  const vec::PairGenerator& generator_;
  std::shared_ptr<const sim::GateProgram> program_;
  sim::SimdKernel kernel_;
  std::mutex slot_mutex_;
  std::vector<std::unique_ptr<Slot>> idle_slots_;
  std::atomic<std::size_t> draws_{0};
};

}  // namespace mpe::maxpower
