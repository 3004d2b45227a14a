// ISCAS-85 ".bench" netlist format reader/writer, so the original benchmark
// circuits (c432 ... c7552) can be used verbatim when the files are
// available, and generated circuits can be exported for other tools.
//
// Grammar (as used by the ISCAS-85/89 distributions):
//   # comment
//   INPUT(G1)
//   OUTPUT(G22)
//   G10 = NAND(G1, G3)
#pragma once

#include <iosfwd>
#include <string>

#include "circuit/netlist.hpp"

namespace mpe::circuit {

/// Parses a .bench description from a stream. Throws std::runtime_error with
/// a line number on malformed input. The returned netlist is finalized.
Netlist read_bench(std::istream& in, const std::string& name = "bench");

/// Parses a .bench description from a string.
Netlist read_bench_string(const std::string& text,
                          const std::string& name = "bench");

/// Parses a .bench file from disk; the netlist is named
/// bench_file_netlist_name(path).
Netlist read_bench_file(const std::string& path);

/// The name read_bench_file gives a file's netlist: the path's basename
/// without its extension.
std::string bench_file_netlist_name(const std::string& path);

/// Writes the netlist in .bench format.
void write_bench(std::ostream& out, const Netlist& netlist);

/// Renders the netlist to a .bench string.
std::string write_bench_string(const Netlist& netlist);

}  // namespace mpe::circuit
