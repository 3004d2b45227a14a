#include "sim/delay.hpp"

#include "util/contracts.hpp"

namespace mpe::sim {

const char* to_string(DelayModel m) {
  switch (m) {
    case DelayModel::kZero:
      return "zero";
    case DelayModel::kUnit:
      return "unit";
    case DelayModel::kFanoutLoaded:
      return "fanout-loaded";
  }
  return "?";
}

std::optional<DelayModel> delay_model_from_name(std::string_view name) {
  if (name == "zero") return DelayModel::kZero;
  if (name == "unit") return DelayModel::kUnit;
  if (name == "loaded") return DelayModel::kFanoutLoaded;
  return std::nullopt;
}

std::vector<double> gate_delays(const circuit::Netlist& netlist,
                                const Technology& tech, DelayModel model,
                                std::span<const double> node_caps) {
  MPE_EXPECTS(netlist.finalized());
  MPE_EXPECTS(node_caps.size() == netlist.num_nodes());
  std::vector<double> delay(netlist.num_gates(), 0.0);
  for (circuit::GateId g = 0; g < netlist.num_gates(); ++g) {
    switch (model) {
      case DelayModel::kZero:
        delay[g] = 0.0;
        break;
      case DelayModel::kUnit:
        delay[g] = tech.unit_delay_ns;
        break;
      case DelayModel::kFanoutLoaded: {
        const auto& gate = netlist.gate(g);
        const auto& el = circuit::electrical(gate.type);
        delay[g] = el.intrinsic_delay * tech.unit_delay_ns +
                   tech.delay_ns_per_ff * node_caps[gate.output] / el.drive;
        break;
      }
    }
  }
  return delay;
}

}  // namespace mpe::sim
