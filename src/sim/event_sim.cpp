#include "sim/event_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.hpp"

namespace mpe::sim {

EventSimulator::EventSimulator(const circuit::Netlist& netlist,
                               EventSimOptions options)
    : netlist_(netlist), opt_(options) {
  MPE_EXPECTS(netlist.finalized());
  // Epoch stamps and event sequence numbers are uint32_t and restart every
  // evaluate(); a cap at or above 2^32 events would let one cycle wrap them.
  MPE_EXPECTS(opt_.max_events < (std::size_t{1} << 32));
  cap_ = node_capacitances(netlist_, opt_.tech);
  gate_delay_ = gate_delays(netlist_, opt_.tech, opt_.delay_model, cap_);
  value_.resize(netlist_.num_nodes());
  projected_.resize(netlist_.num_nodes());
  pending_seq_.assign(netlist_.num_nodes(), kNoPending);
  pending_time_.assign(netlist_.num_nodes(), 0.0);
  gate_mark_.assign(netlist_.num_gates(), 0);
  node_mark_.assign(netlist_.num_nodes(), 0);
  start_value_.assign(netlist_.num_nodes(), 0);
}

void EventSimulator::settle(std::span<const std::uint8_t> in) {
  const auto& inputs = netlist_.inputs();
  MPE_EXPECTS(in.size() == inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    value_[inputs[i]] = in[i] ? 1 : 0;
  }
  for (circuit::GateId g : netlist_.topo_order()) {
    const circuit::Gate& gate = netlist_.gate(g);
    fanin_buf_.clear();
    for (circuit::NodeId n : gate.inputs) fanin_buf_.push_back(value_[n]);
    value_[gate.output] = circuit::eval_gate(gate.type, fanin_buf_) ? 1 : 0;
  }
}

void EventSimulator::schedule(circuit::NodeId node, double te,
                              std::uint8_t value, double inertia) {
  if (value == projected_[node]) {
    return;  // trajectory already ends at this value
  }
  if (opt_.inertial && pending_seq_[node] != kNoPending) {
    // A pending (not yet fired) opposite-valued event exists; the new event
    // returns the node to its pre-pulse value. If the pulse is narrower than
    // the driving gate's inertia, swallow both.
    const double pulse_width = te - pending_time_[node];
    if (pulse_width < inertia) {
      event_alive_[pending_seq_[node]] = 0;
      pending_seq_[node] = kNoPending;
      projected_[node] = value;
      return;
    }
  }
  const auto seq = static_cast<std::uint32_t>(event_alive_.size());
  event_alive_.push_back(1);
  heap_.push_back(Event{te, seq, node, value});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  projected_[node] = value;
  pending_seq_[node] = seq;
  pending_time_[node] = te;
}

CycleResult EventSimulator::evaluate(std::span<const std::uint8_t> v1,
                                     std::span<const std::uint8_t> v2) {
  settle(v1);
  std::copy(value_.begin(), value_.end(), projected_.begin());
  heap_.clear();
  event_alive_.clear();
  std::fill(pending_seq_.begin(), pending_seq_.end(), kNoPending);
  // Epochs restart every cycle, so they never wrap onto a stale mark.
  std::fill(gate_mark_.begin(), gate_mark_.end(), 0);
  std::fill(node_mark_.begin(), node_mark_.end(), 0);
  epoch_ = 0;
  ts_epoch_ = 0;

  const auto& inputs = netlist_.inputs();
  MPE_EXPECTS(v2.size() == inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint8_t nv = v2[i] ? 1 : 0;
    if (nv != value_[inputs[i]]) {
      schedule(inputs[i], 0.0, nv, 0.0);
    }
  }

  CycleResult r;
  std::size_t processed = 0;
  while (!heap_.empty()) {
    const double t_now = heap_.front().time;
    // One physical timestamp. Zero-delay gates cascade in "waves" at the
    // same time; those are delta cycles, and toggles are committed only on
    // the net start-of-timestamp -> end-of-timestamp change so zero-width
    // pulses do not consume energy.
    ++ts_epoch_;
    changed_nodes_.clear();
    do {
      // Wave phase 1: fire every pending event at exactly t_now.
      ++epoch_;
      touched_gates_.clear();
      while (!heap_.empty() && heap_.front().time == t_now) {
        std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
        const Event ev = heap_.back();
        heap_.pop_back();
        if (!event_alive_[ev.seq]) continue;  // cancelled (inertial)
        if (pending_seq_[ev.node] == ev.seq) {
          pending_seq_[ev.node] = kNoPending;
        }
        if (++processed > opt_.max_events) {
          throw std::runtime_error(
              "event simulator exceeded max_events; netlist is likely not "
              "combinational or the delay model is inconsistent");
        }
        MPE_ENSURES(ev.value != value_[ev.node]);
        if (node_mark_[ev.node] != ts_epoch_) {
          node_mark_[ev.node] = ts_epoch_;
          start_value_[ev.node] = value_[ev.node];
          changed_nodes_.push_back(ev.node);
        }
        value_[ev.node] = ev.value;
        for (circuit::GateId g : netlist_.fanout(ev.node)) {
          if (gate_mark_[g] != epoch_) {
            gate_mark_[g] = epoch_;
            touched_gates_.push_back(g);
          }
        }
      }
      // Wave phase 2: re-evaluate each affected gate once with the
      // wave-updated input values and schedule its output transition.
      for (circuit::GateId g : touched_gates_) {
        const circuit::Gate& gate = netlist_.gate(g);
        fanin_buf_.clear();
        for (circuit::NodeId n : gate.inputs) fanin_buf_.push_back(value_[n]);
        const std::uint8_t nv =
            circuit::eval_gate(gate.type, fanin_buf_) ? 1 : 0;
        const double d = gate_delay_[g];
        schedule(gate.output, t_now + d, nv, d);
      }
    } while (!heap_.empty() && heap_.front().time == t_now);
    // Commit the timestamp: one toggle per node whose value actually
    // changed across the whole timestamp, in ascending node id (the energy
    // order BatchEventSimulator reproduces lane by lane).
    std::sort(changed_nodes_.begin(), changed_nodes_.end());
    for (circuit::NodeId n : changed_nodes_) {
      if (value_[n] != start_value_[n]) {
        ++r.toggles;
        r.energy_pj += opt_.tech.toggle_energy_pj(cap_[n]);
        r.settle_time_ns = t_now;
        if (profiling_) profile_toggles_[n] += 1.0;
        if (trace_) trace_(t_now, n, value_[n]);
      }
    }
  }

  r.power_mw = r.energy_pj / opt_.tech.clock_period_ns;
  return r;
}

void EventSimulator::enable_profiling(bool on) {
  profiling_ = on;
  if (on && profile_toggles_.size() != netlist_.num_nodes()) {
    profile_toggles_.assign(netlist_.num_nodes(), 0.0);
  }
}

void EventSimulator::reset_profile() {
  std::fill(profile_toggles_.begin(), profile_toggles_.end(), 0.0);
}

}  // namespace mpe::sim
