// Sequential benchmark stand-ins mirroring the ISCAS-89 "s-series" the way
// gen/presets.hpp mirrors the ISCAS-85 c-series: random levelized DAG cores
// with the original primary-input / primary-output / flip-flop / gate
// counts, plus feedback wiring through the state elements. The library
// reads no sequential netlist files: the s-series exist only as these
// stand-ins.
#pragma once

#include <string>
#include <vector>

#include "seq/seq_netlist.hpp"

namespace mpe::seq {

/// Descriptor of one sequential preset.
struct SeqPresetInfo {
  std::string name;         ///< e.g. "s344"
  std::size_t num_inputs;   ///< ISCAS-89 PI count (excl. clock)
  std::size_t num_outputs;  ///< PO count
  std::size_t num_ffs;      ///< flip-flop count
  std::size_t num_gates;    ///< gate count
  std::string description;  ///< documented function of the original
};

/// The supported presets, smallest first.
const std::vector<SeqPresetInfo>& seq_preset_catalog();

/// Finds a preset descriptor. Throws std::invalid_argument if unknown.
const SeqPresetInfo& seq_preset_info(const std::string& name);

/// Builds the preset: a random DAG core with matched counts whose state
/// feedback runs through `num_ffs` flip-flops (Q nodes feed the logic, D
/// nodes are driven by it). Deterministic in (name, seed).
SequentialNetlist build_seq_preset(const std::string& name,
                                   std::uint64_t seed);

}  // namespace mpe::seq
