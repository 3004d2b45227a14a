// CompiledSimulator: evaluates a GateProgram tape 64/256/512 vector pairs
// at a time. The kernel variant (portable 64-bit scalar words, AVX2, or
// AVX-512) is chosen at runtime via sim/cpu_dispatch — the simulator object
// is the *state* (packed node words, lane accumulators); the immutable
// compiled tape is shared across instances and threads.
//
// Contract: for any batch, lane k's CycleResult is bit-identical to
// ZeroDelaySimulator::evaluate(pairs[k]), the reference oracle — same toggle
// counts, same IEEE-exact energies (per-lane energy accumulates over nodes
// in ascending node-id order in every kernel). Zero-delay only; a
// zero-delay vec::StreamingPopulation binds one per concurrent draw.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/cpu_dispatch.hpp"
#include "sim/gate_program.hpp"
#include "sim/zero_delay_sim.hpp"
#include "vectors/input_vector.hpp"

namespace mpe::sim {

/// Wide-SIMD zero-delay evaluator over a compiled tape. One instance per
/// thread; the shared GateProgram is immutable and thread-safe.
class CompiledSimulator {
 public:
  /// Binds to a compiled program and a kernel variant. Throws
  /// ContractViolation when the kernel is not available on this host
  /// (see sim::available_kernels()).
  explicit CompiledSimulator(std::shared_ptr<const GateProgram> program,
                             SimdKernel kernel = best_kernel());

  /// Evaluates up to lanes() vector pairs in one tape pass, filling `out`
  /// with one CycleResult per pair (settle_time is 0 under zero delay).
  void evaluate_batch(std::span<const vec::VectorPair> pairs,
                      std::vector<CycleResult>& out);

  /// Allocating convenience wrapper.
  std::vector<CycleResult> evaluate_batch(
      std::span<const vec::VectorPair> pairs);

  /// Batch width of the selected kernel (64, 256, or 512 pairs).
  std::size_t lanes() const { return lanes_; }

  SimdKernel kernel() const { return kernel_; }
  const GateProgram& program() const { return *program_; }

 private:
  void pack_inputs(std::span<const vec::VectorPair> pairs);

  std::shared_ptr<const GateProgram> program_;
  SimdKernel kernel_;
  std::size_t lanes_ = 0;
  std::size_t words_per_node_ = 0;
  // 64-byte-aligned SoA node state: words_per_node_ uint64 per node.
  std::vector<std::uint64_t> state_storage_;
  std::uint64_t* state1_ = nullptr;
  std::uint64_t* state2_ = nullptr;
  std::vector<double> lane_energy_;
  std::vector<std::uint64_t> lane_toggles_;
  // pack_inputs scratch: two 64-row bit matrices (one per state), each row
  // one lane's input bits, ceil(width/64) words per row.
  std::vector<std::uint64_t> pack_rows_;
};

}  // namespace mpe::sim
