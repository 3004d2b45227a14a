// Structural (gate-level) Verilog reader/writer for the primitive-gate
// subset every synthesis flow can emit:
//
//   module top (a, b, y);
//     input a, b;
//     output y;
//     wire n1;
//     nand g1 (n1, a, b);   // output first, then inputs
//     not  g2 (y, n1);
//   endmodule
//
// Supported primitives: and, nand, or, nor, xor, xnor, not, buf. One module
// per file; vectors/parameters/assign are not supported (this is a netlist
// interchange path, not a Verilog frontend) and raise a parse error with a
// line number.
#pragma once

#include <iosfwd>
#include <string>

#include "circuit/netlist.hpp"

namespace mpe::circuit {

/// Parses a structural Verilog module from a stream. The returned netlist
/// is finalized and named after the module. Throws mpe::Error(kParse) with
/// a line number on malformed input.
Netlist read_verilog(std::istream& in);

/// Parses from a string.
Netlist read_verilog_string(const std::string& text);

/// Parses from a file; throws mpe::Error(kIo) when it cannot be opened.
Netlist read_verilog_file(const std::string& path);

/// Writes the netlist as a structural Verilog module.
void write_verilog(std::ostream& out, const Netlist& netlist);

/// Renders to a string.
std::string write_verilog_string(const Netlist& netlist);

}  // namespace mpe::circuit
