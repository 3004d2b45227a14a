// Event-driven gate-level cycle power simulator. Applies an input vector
// pair (v1 settled, then v2 at t = 0) and propagates transitions through the
// netlist under a per-gate delay model, counting every node toggle —
// including glitches, the component zero-delay analysis misses. Supports
// transport semantics (every pulse propagates) and inertial semantics
// (pulses narrower than a gate's delay are swallowed).
//
// This simulator is the repo's PowerMill substitute: the estimation layers
// consume only the per-cycle power values it produces. It is also the
// reference oracle of the 64-lane BatchEventSimulator, which the population
// builders and streaming draws run on.
//
// Energy order: a cycle's energy is the sum of one toggle energy per
// committed toggle, added in time order and, within one timestamp, in
// ascending node id. The batch simulator adds them in the same order lane by
// lane, so both give the same doubles.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/delay.hpp"
#include "sim/technology.hpp"
#include "sim/zero_delay_sim.hpp"

namespace mpe::sim {

/// Event-driven simulator configuration.
struct EventSimOptions {
  Technology tech;
  DelayModel delay_model = DelayModel::kFanoutLoaded;
  /// Swallow pulses narrower than the gate delay. On by default: real gates
  /// (and transistor-level simulators) filter sub-delay pulses; pure
  /// transport propagation over-counts glitch trains and produces
  /// unphysically heavy power tails. Set false for transport semantics.
  bool inertial = true;
  /// Hard cap on processed events per cycle (defends against model bugs; a
  /// combinational netlist always settles long before this). Must be below
  /// 2^32, the range of the simulator's per-cycle epoch stamps.
  std::size_t max_events = 50'000'000;
};

/// Reusable event-driven evaluator. One instance per thread.
class EventSimulator {
 public:
  EventSimulator(const circuit::Netlist& netlist, EventSimOptions options);

  /// Simulates the cycle v1 -> v2 and returns energy/power/toggle counts.
  /// Vector layouts follow netlist.inputs().
  CycleResult evaluate(std::span<const std::uint8_t> v1,
                       std::span<const std::uint8_t> v2);

  const EventSimOptions& options() const { return opt_; }
  const circuit::Netlist& netlist() const { return netlist_; }

  /// Transition trace hook: invoked once per committed node transition as
  /// (time_ns, node, new_value). Used by the VCD recorder. Pass nullptr to
  /// disable (the default; the hot path pays only a branch).
  using TraceFn = std::function<void(double, circuit::NodeId, std::uint8_t)>;
  void set_trace(TraceFn trace) { trace_ = std::move(trace); }

  /// Per-node profiling: when enabled, toggle counts accumulate across
  /// evaluate() calls (used by profile_power). Off by default (hot path).
  void enable_profiling(bool on);
  /// Accumulated toggles per node since the last reset.
  const std::vector<double>& profiled_toggles() const {
    return profile_toggles_;
  }
  void reset_profile();
  const std::vector<double>& node_caps() const { return cap_; }
  const std::vector<double>& gate_delay() const { return gate_delay_; }

 private:
  struct Event {
    double time;
    std::uint32_t seq;  ///< tie-breaker for deterministic ordering
    circuit::NodeId node;
    std::uint8_t value;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  friend struct EventSimulatorTestPeer;  // reaches the epochs in tests

  void settle(std::span<const std::uint8_t> in);
  void schedule(circuit::NodeId node, double te, std::uint8_t value,
                double inertia);

  const circuit::Netlist& netlist_;
  EventSimOptions opt_;
  std::vector<double> cap_;
  std::vector<double> gate_delay_;

  // Per-evaluate scratch state (reused across calls).
  std::vector<std::uint8_t> value_;      ///< current node values
  std::vector<std::uint8_t> projected_;  ///< value after all pending events
  std::vector<Event> heap_;
  std::vector<std::uint8_t> event_alive_;     ///< indexed by seq
  std::vector<std::uint32_t> pending_seq_;    ///< per node; kNoPending if none
  std::vector<double> pending_time_;          ///< per node
  std::vector<std::uint32_t> gate_mark_;      ///< per gate, wave epoch stamps
  std::vector<circuit::GateId> touched_gates_;
  std::vector<std::uint32_t> node_mark_;      ///< per node, timestamp epochs
  std::vector<std::uint8_t> start_value_;     ///< value at timestamp start
  std::vector<circuit::NodeId> changed_nodes_;
  std::vector<std::uint8_t> fanin_buf_;
  std::uint32_t epoch_ = 0;
  std::uint32_t ts_epoch_ = 0;
  bool profiling_ = false;
  std::vector<double> profile_toggles_;
  TraceFn trace_;

  static constexpr std::uint32_t kNoPending = 0xffffffffu;
};

}  // namespace mpe::sim
