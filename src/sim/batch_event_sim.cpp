#include "sim/batch_event_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace mpe::sim {

namespace {

/// Wheel slots per smallest gate delay. At least 2 keeps every event out of
/// the slot being drained; more slots mean fewer events to sort per slot,
/// which matters under transport, where glitch trains keep thousands of
/// events in flight. The ring spans the largest delay: on the ISCAS-class
/// presets (largest/smallest delay <= 5.4) it has at most 2048 slots.
constexpr double kSlotsPerMinDelay = 256.0;

}  // namespace

BatchEventSimulator::BatchEventSimulator(const circuit::Netlist& netlist,
                                         EventSimOptions options)
    : opt_(options) {
  MPE_EXPECTS(netlist.finalized());
  MPE_EXPECTS_MSG(opt_.delay_model != DelayModel::kZero,
                  "the batch event simulator requires a non-zero delay model");
  const auto cap = node_capacitances(netlist, opt_.tech);
  const auto gate_delay =
      gate_delays(netlist, opt_.tech, opt_.delay_model, cap);

  const auto& topo = netlist.topo_order();
  std::vector<std::uint32_t> tape_index(netlist.num_gates());
  fanin_begin_.push_back(0);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const circuit::Gate& gate = netlist.gate(topo[i]);
    tape_index[topo[i]] = static_cast<std::uint32_t>(i);
    op_.push_back(gate.type);
    out_.push_back(gate.output);
    delay_.push_back(gate_delay[topo[i]]);
    fanin_.insert(fanin_.end(), gate.inputs.begin(), gate.inputs.end());
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_.size()));
  }
  const std::size_t nodes = netlist.num_nodes();
  fanout_begin_.push_back(0);
  for (circuit::NodeId n = 0; n < nodes; ++n) {
    for (circuit::GateId g : netlist.fanout(n)) {
      fanout_.push_back(tape_index[g]);
    }
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_.size()));
    // The same doubles EventSimulator adds per toggle.
    energy_.push_back(opt_.tech.toggle_energy_pj(cap[n]));
  }
  input_node_.assign(netlist.inputs().begin(), netlist.inputs().end());

  std::size_t slots = 4;
  if (!delay_.empty()) {
    const auto [dmin, dmax] =
        std::minmax_element(delay_.begin(), delay_.end());
    MPE_EXPECTS_MSG(*dmin > 0.0, "gate delays must be positive");
    inv_slot_width_ = kSlotsPerMinDelay / *dmin;
    // An event lands at most ceil(dmax / width) + 1 slots past the one
    // being drained; two spare slots keep the ring from wrapping onto it.
    slots = static_cast<std::size_t>(std::ceil(*dmax * inv_slot_width_)) + 3;
  }
  wheel_.assign(std::bit_ceil(slots), kNone);
  wheel_mask_ = wheel_.size() - 1;

  value_.resize(nodes);
  projected_.resize(nodes);
  pending_.assign(nodes, kNone);
  pend_lanes_.assign(nodes, 0);
  gate_mark_.assign(op_.size(), 0);
}

std::uint64_t BatchEventSimulator::eval_gate(std::uint32_t g) const {
  const std::uint32_t* f = fanin_.data() + fanin_begin_[g];
  const std::uint32_t* end = fanin_.data() + fanin_begin_[g + 1];
  std::uint64_t acc = value_[*f++];
  switch (op_[g]) {
    case circuit::GateType::kBuf:
      return acc;
    case circuit::GateType::kNot:
      return ~acc;
    case circuit::GateType::kAnd:
    case circuit::GateType::kNand:
      for (; f != end; ++f) acc &= value_[*f];
      return op_[g] == circuit::GateType::kAnd ? acc : ~acc;
    case circuit::GateType::kOr:
    case circuit::GateType::kNor:
      for (; f != end; ++f) acc |= value_[*f];
      return op_[g] == circuit::GateType::kOr ? acc : ~acc;
    case circuit::GateType::kXor:
    case circuit::GateType::kXnor:
      for (; f != end; ++f) acc ^= value_[*f];
      return op_[g] == circuit::GateType::kXor ? acc : ~acc;
  }
  return acc;
}

void BatchEventSimulator::settle() {
  for (std::size_t i = 0; i < input_node_.size(); ++i) {
    value_[input_node_[i]] = v1_[i];
  }
  for (std::uint32_t g = 0; g < op_.size(); ++g) value_[out_[g]] = eval_gate(g);
}

void BatchEventSimulator::add_event(double time, std::uint32_t node,
                                    std::uint64_t lanes,
                                    std::uint64_t value) {
  std::uint32_t id = free_;
  if (id != kNone) {
    free_ = events_[id].next_slot;
  } else {
    id = static_cast<std::uint32_t>(events_.size());
    events_.emplace_back();
  }
  std::uint32_t& head =
      wheel_[static_cast<std::size_t>(time * inv_slot_width_) & wheel_mask_];
  Event& e = events_[id];
  e = Event{time, lanes, value, 0, node, next_seq_++, head, kNone, kNone};
  head = id;
  if (opt_.inertial) {
    e.pend = lanes;
    e.next_pend = pending_[node];
    if (e.next_pend != kNone) events_[e.next_pend].prev_pend = id;
    pending_[node] = id;
    pend_lanes_[node] |= lanes;
  }
  projected_[node] ^= lanes;
  ++in_flight_;
}

void BatchEventSimulator::unlink_pending(const Event& e) {
  if (e.prev_pend == kNone) {
    pending_[e.node] = e.next_pend;
  } else {
    events_[e.prev_pend].next_pend = e.next_pend;
  }
  if (e.next_pend != kNone) events_[e.next_pend].prev_pend = e.prev_pend;
}

void BatchEventSimulator::schedule(std::uint32_t node, double te,
                                   std::uint64_t nv, double inertia) {
  // Lanes whose trajectory does not already end at the new value.
  std::uint64_t lanes = nv ^ projected_[node];
  if (lanes == 0) return;
  if (opt_.inertial) {
    // Per lane, at most one in-flight event of this node is pending. Where
    // the new event would close a pulse narrower than the gate's inertia,
    // both are swallowed; elsewhere the new event becomes the pending one.
    std::uint64_t want = lanes & pend_lanes_[node];
    pend_lanes_[node] &= ~want;
    for (std::uint32_t id = pending_[node]; want != 0;) {
      Event& e = events_[id];
      const std::uint32_t next = e.next_pend;
      const std::uint64_t hit = e.pend & want;
      if (hit != 0) {
        want &= ~hit;
        if (te - e.time < inertia) {
          e.live &= ~hit;
          projected_[node] ^= hit;
          lanes &= ~hit;
        }
        e.pend &= ~hit;
        if (e.pend == 0) unlink_pending(e);
      }
      id = next;
    }
    if (lanes == 0) return;
  }
  add_event(te, node, lanes, nv);
}

void BatchEventSimulator::count_fired(std::uint64_t lanes) {
  for (; lanes != 0; lanes &= lanes - 1) {
    if (++fired_[std::countr_zero(lanes)] > opt_.max_events) {
      throw std::runtime_error(
          "event simulator exceeded max_events; netlist is likely not "
          "combinational or the delay model is inconsistent");
    }
  }
}

void BatchEventSimulator::commit(std::uint32_t node, std::uint64_t flips,
                                 double t) {
  const double e = energy_[node];
  for (; flips != 0; flips &= flips - 1) {
    const int lane = std::countr_zero(flips);
    ++toggles_[lane];
    energy_pj_[lane] += e;
    settle_ns_[lane] = t;
  }
}

void BatchEventSimulator::drain_slot(std::size_t abs_slot) {
  std::uint32_t& head = wheel_[abs_slot & wheel_mask_];
  if (head == kNone) return;
  due_.clear();
  for (std::uint32_t id = head; id != kNone; id = events_[id].next_slot) {
    const Event& e = events_[id];
    due_.push_back(Due{e.time, e.node, e.seq, id});
  }
  head = kNone;
  // Timestamps in order; within one, nodes ascending (the energy order),
  // and one node's events in creation order (the order they fire in).
  std::sort(due_.begin(), due_.end(), [](const Due& a, const Due& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.node != b.node) return a.node < b.node;
    return a.seq < b.seq;
  });

  std::size_t i = 0;
  while (i < due_.size()) {
    // One timestamp. Gate delays are positive, so it is a single wave: fire
    // every event due now, commit each node's net change, then re-evaluate
    // the fanout gates once and schedule their outputs in later slots.
    const double t = due_[i].time;
    ++epoch_;
    touched_.clear();
    std::uint32_t node = kNone;
    std::uint64_t flips = 0;
    for (; i < due_.size() && due_[i].time == t; ++i) {
      const std::uint32_t id = due_[i].id;
      Event& e = events_[id];
      const std::uint64_t fire = e.live;
      if (fire != 0) {
        if (e.pend != 0) {
          pend_lanes_[e.node] &= ~e.pend;
          unlink_pending(e);
        }
        count_fired(fire);
        MPE_ENSURES(((value_[e.node] ^ e.value) & fire) == fire);
        if (e.node != node) {
          if (node != kNone) commit(node, flips, t);
          node = e.node;
          flips = 0;
        }
        value_[node] ^= fire;
        flips ^= fire;
        for (std::uint32_t k = fanout_begin_[node]; k < fanout_begin_[node + 1];
             ++k) {
          const std::uint32_t g = fanout_[k];
          if (gate_mark_[g] != epoch_) {
            gate_mark_[g] = epoch_;
            touched_.push_back(g);
          }
        }
      }
      e.next_slot = free_;
      free_ = id;
      --in_flight_;
    }
    if (node != kNone) commit(node, flips, t);
    // A gate re-evaluated in lanes where no fanin fired returns its
    // projected value there, so evaluating all 64 lanes schedules nothing
    // extra.
    for (std::uint32_t g : touched_) {
      const double d = delay_[g];
      schedule(out_[g], t + d, eval_gate(g), d);
    }
  }
}

void BatchEventSimulator::evaluate_batch(
    std::span<const vec::VectorPair> pairs, std::vector<CycleResult>& out) {
  MPE_EXPECTS(pairs.size() <= kLanes);
  const std::size_t width = input_node_.size();
  v1_.assign(width, 0);
  v2_.assign(width, 0);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    MPE_EXPECTS(pairs[k].first.size() == width &&
                pairs[k].second.size() == width);
    for (std::size_t i = 0; i < width; ++i) {
      v1_[i] |= std::uint64_t{pairs[k].first[i] != 0} << k;
      v2_[i] |= std::uint64_t{pairs[k].second[i] != 0} << k;
    }
  }

  settle();
  projected_ = value_;
  std::fill(pending_.begin(), pending_.end(), kNone);
  std::fill(pend_lanes_.begin(), pend_lanes_.end(), 0);
  std::fill(wheel_.begin(), wheel_.end(), kNone);
  // Timestamp epochs restart every pass, so they never wrap onto a stale
  // gate mark.
  std::fill(gate_mark_.begin(), gate_mark_.end(), 0);
  epoch_ = 0;
  events_.clear();
  free_ = kNone;
  next_seq_ = 0;
  in_flight_ = 0;
  energy_pj_.fill(0.0);
  toggles_.fill(0);
  settle_ns_.fill(0.0);
  fired_.fill(0);

  for (std::size_t i = 0; i < width; ++i) {
    const std::uint64_t diff = v1_[i] ^ v2_[i];
    if (diff != 0) add_event(0.0, input_node_[i], diff, v2_[i]);
  }
  for (std::size_t slot = 0; in_flight_ != 0; ++slot) drain_slot(slot);

  out.resize(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    CycleResult& r = out[k];
    r.energy_pj = energy_pj_[k];
    r.power_mw = energy_pj_[k] / opt_.tech.clock_period_ns;
    r.toggles = toggles_[k];
    r.settle_time_ns = settle_ns_[k];
  }
}

}  // namespace mpe::sim
