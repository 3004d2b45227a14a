// BatchEventSimulator: the event-driven glitch simulator, 64 vector pairs
// per pass. It settles v1 on 64-lane words over a flat gate tape, then runs
// masked events (time, node, lane mask, value bits) on a bucketed timing
// wheel keyed by the exact double times EventSimulator computes. Lanes share
// the path-delay arithmetic (every event time is a left-fold sum of gate
// delays along a path), so events of different lanes at the same node and
// time coalesce into one masked event, and inertial cancellation is a mask
// operation on the in-flight events of the rescheduled node.
//
// Contract: for any batch, lane k's CycleResult is bit-identical to
// EventSimulator::evaluate(pairs[k]) under the same options, the reference
// oracle: same toggle counts and settle times, and the same energies, summed
// per lane in time order and, within one timestamp, in ascending node id.
// Non-zero delay only (unit or fanout-loaded; inertial or transport).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/event_sim.hpp"
#include "vectors/input_vector.hpp"

namespace mpe::sim {

/// 64-lane event-driven evaluator. One instance per thread; its state is
/// O(nodes) words plus the in-flight events of one pass, whose slots are
/// recycled.
class BatchEventSimulator {
 public:
  static constexpr std::size_t kLanes = 64;

  /// Requires a non-zero delay model.
  BatchEventSimulator(const circuit::Netlist& netlist,
                      EventSimOptions options);

  /// Evaluates up to kLanes vector pairs in one pass, filling `out` with
  /// one CycleResult per pair. Throws std::runtime_error when any lane
  /// exceeds options().max_events, as EventSimulator does for that pair.
  void evaluate_batch(std::span<const vec::VectorPair> pairs,
                      std::vector<CycleResult>& out);

  std::size_t lanes() const { return kLanes; }
  const EventSimOptions& options() const { return opt_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Event {
    double time;
    std::uint64_t live;   ///< lanes still scheduled to fire
    std::uint64_t value;  ///< new node value bits (meaningful in `live`)
    std::uint64_t pend;   ///< lanes where this is the node's pending event
    std::uint32_t node;
    std::uint32_t seq;          ///< creation order within the pass
    std::uint32_t next_slot;  ///< next event in the same wheel slot
    std::uint32_t next_pend;  ///< node's pending list, doubly linked
    std::uint32_t prev_pend;
  };
  /// Sort key of one event in the wheel slot being drained.
  struct Due {
    double time;
    std::uint32_t node;
    std::uint32_t seq;
    std::uint32_t id;
  };

  void settle();
  std::uint64_t eval_gate(std::uint32_t g) const;
  void schedule(std::uint32_t node, double te, std::uint64_t nv,
                double inertia);
  void add_event(double time, std::uint32_t node, std::uint64_t lanes,
                 std::uint64_t value);
  void unlink_pending(const Event& e);
  void drain_slot(std::size_t abs_slot);
  void count_fired(std::uint64_t lanes);
  void commit(std::uint32_t node, std::uint64_t flips, double t);

  EventSimOptions opt_;

  // Flat tape, gates in topological order: op, output node, delay and a
  // fanin CSR per gate; a fanout CSR (tape gate indices) and the toggle
  // energy per node.
  std::vector<circuit::GateType> op_;
  std::vector<std::uint32_t> out_;
  std::vector<double> delay_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<std::uint32_t> fanin_;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_;
  std::vector<double> energy_;
  std::vector<std::uint32_t> input_node_;

  // Timing wheel: a ring of slot lists, each slot a small fraction of the
  // smallest gate delay wide (so an event is always scheduled into a later
  // slot than the one being drained), with enough slots to span the
  // largest delay.
  double inv_slot_width_ = 1.0;
  std::size_t wheel_mask_ = 0;
  std::vector<std::uint32_t> wheel_;

  // Per-pass state.
  std::vector<std::uint64_t> v1_, v2_;     ///< packed input words
  std::vector<std::uint64_t> value_;       ///< current node values
  std::vector<std::uint64_t> projected_;   ///< values after pending events
  std::vector<std::uint32_t> pending_;     ///< per node: pending-list head
  std::vector<std::uint64_t> pend_lanes_;  ///< per node: lanes pending
  std::vector<Event> events_;
  std::uint32_t free_ = kNone;
  std::uint32_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<Due> due_;
  std::vector<std::uint32_t> gate_mark_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t epoch_ = 0;
  std::array<double, kLanes> energy_pj_{};
  std::array<std::size_t, kLanes> toggles_{};
  std::array<double, kLanes> settle_ns_{};
  std::array<std::size_t, kLanes> fired_{};
};

}  // namespace mpe::sim
