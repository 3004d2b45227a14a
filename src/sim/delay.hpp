// Gate delay models. The paper's key argument for a simulation-based method
// is that it is not tied to simplistic delay models, so we provide three:
// zero-delay (functional toggles only), unit-delay, and a fanout-loaded
// model where each gate's delay grows with the capacitance it drives — the
// model under which glitch power appears.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/technology.hpp"

namespace mpe::sim {

/// Available delay models.
enum class DelayModel {
  kZero,          ///< all gates switch instantly (no glitches)
  kUnit,          ///< every gate takes one unit delay
  kFanoutLoaded,  ///< delay = intrinsic + slope * load_cap / drive
};

/// Human-readable model name.
const char* to_string(DelayModel m);

/// The model a command line or job manifest names: "zero" | "unit" |
/// "loaded"; nullopt for anything else.
std::optional<DelayModel> delay_model_from_name(std::string_view name);

/// Computes the per-gate propagation delay [ns] under the chosen model.
/// `node_caps` must come from node_capacitances() on the same netlist.
std::vector<double> gate_delays(const circuit::Netlist& netlist,
                                const Technology& tech, DelayModel model,
                                std::span<const double> node_caps);

}  // namespace mpe::sim
