// GateProgram: a levelized circuit::Netlist lowered, once, into a flat
// structure-of-arrays evaluation tape. Instead of walking the graph per
// batch (topo-order indirection, per-gate heap-allocated fanin vectors,
// a type switch per gate), the compiled simulator streams contiguous
// arrays: per-level runs of identical opcodes, a flat fanin index array,
// and per-node energy weights. Gates within a level are independent, so
// the compiler is free to sort each level by opcode — one dispatch per
// *run* of gates instead of one per gate, and arity-2 gates (the common
// case) get their own branch-free opcodes with stride-2 fanin reads.
//
// A program is immutable after compile() and holds no simulation state, so
// one compiled program is shared (via shared_ptr) by every CompiledSimulator
// instance across all threads serving the same circuit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/technology.hpp"

namespace mpe::sim {

/// Tape opcode: the gate type specialized by arity. The *2 variants read
/// exactly two fanins at a fixed stride; the *N variants loop over
/// fanin_count entries.
enum class GateOp : std::uint8_t {
  kBuf,
  kNot,
  kAnd2,
  kNand2,
  kOr2,
  kNor2,
  kXor2,
  kXnor2,
  kAndN,
  kNandN,
  kOrN,
  kNorN,
  kXorN,
  kXnorN,
};

/// Stable opcode name for diagnostics ("and2", "xorN", ...).
const char* to_string(GateOp op);

/// The compiled tape. All per-gate arrays are index-aligned and ordered
/// level-major with identical opcodes contiguous within each level.
class GateProgram {
 public:
  /// A maximal run of gates with the same opcode inside one level.
  struct Segment {
    GateOp op;
    std::uint32_t begin = 0;  ///< first gate record of the run
    std::uint32_t end = 0;    ///< one past the last gate record
  };

  /// Lowers a finalized netlist. O(gates) one-time cost; the netlist is not
  /// retained (the program is self-contained).
  static std::shared_ptr<const GateProgram> compile(
      const circuit::Netlist& netlist, Technology tech);

  // -- tape ------------------------------------------------------------------

  /// Node id written by gate record g.
  const std::vector<std::uint32_t>& output() const { return output_; }
  /// Offset of gate record g's fanins in fanin().
  const std::vector<std::uint32_t>& fanin_begin() const {
    return fanin_begin_;
  }
  /// Fanin count of gate record g.
  const std::vector<std::uint16_t>& fanin_count() const {
    return fanin_count_;
  }
  /// Flat fanin node-id array, contiguous per gate record in tape order.
  const std::vector<std::uint32_t>& fanin() const { return fanin_; }
  /// Opcode runs, in evaluation order (levels ascending).
  const std::vector<Segment>& segments() const { return segments_; }

  // -- node metadata ---------------------------------------------------------

  /// Node ids of the primary inputs, in netlist input order (the layout of
  /// vec::InputVector).
  const std::vector<std::uint32_t>& input_node() const { return input_node_; }
  /// Per-node energy of one toggle [pJ], indexed by node id. Identical
  /// doubles to what the ZeroDelaySimulator oracle computes.
  const std::vector<double>& energy_per_toggle() const {
    return energy_per_toggle_;
  }

  std::size_t num_nodes() const { return energy_per_toggle_.size(); }
  std::size_t num_gates() const { return output_.size(); }
  std::size_t num_levels() const { return num_levels_; }
  const Technology& technology() const { return tech_; }
  const std::string& circuit_name() const { return name_; }

 private:
  GateProgram() = default;

  std::vector<std::uint32_t> output_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<std::uint16_t> fanin_count_;
  std::vector<std::uint32_t> fanin_;
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> input_node_;
  std::vector<double> energy_per_toggle_;
  std::size_t num_levels_ = 0;
  Technology tech_;
  std::string name_;
};

}  // namespace mpe::sim
