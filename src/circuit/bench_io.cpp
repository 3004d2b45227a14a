#include "circuit/bench_io.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/status.hpp"

namespace mpe::circuit {

namespace {

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void parse_error(std::size_t line_no, const std::string& what) {
  throw Error(ErrorCode::kParse,
              "bench parse error at line " + std::to_string(line_no) + ": " +
                  what,
              ErrorContext{}.kv("line", line_no).str());
}

}  // namespace

Netlist read_bench(std::istream& in, const std::string& name) {
  Netlist nl(name);
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::pair<NodeId, std::string>> deferred_outputs;

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = strip(line);
    if (line.empty()) continue;

    auto paren_arg = [&](const std::string& text) {
      const auto open = text.find('(');
      const auto close = text.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close <= open) {
        parse_error(line_no, "expected '(signal)' in '" + text + "'");
      }
      return strip(text.substr(open + 1, close - open - 1));
    };

    if (line.rfind("INPUT", 0) == 0) {
      const std::string sig = paren_arg(line);
      if (sig.empty()) parse_error(line_no, "empty INPUT signal name");
      try {
        nl.add_input(sig);
      } catch (const std::exception& e) {
        parse_error(line_no, e.what());
      }
      continue;
    }
    if (line.rfind("OUTPUT", 0) == 0) {
      const std::string sig = paren_arg(line);
      if (sig.empty()) parse_error(line_no, "empty OUTPUT signal name");
      nl.mark_output(sig);
      continue;
    }

    // Gate line: out = TYPE(in1, in2, ...)
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      parse_error(line_no, "expected 'signal = TYPE(...)' in '" + line + "'");
    }
    const std::string out_name = strip(line.substr(0, eq));
    if (out_name.empty()) parse_error(line_no, "empty gate output name");
    const std::string rhs = strip(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open) {
      parse_error(line_no, "malformed gate expression '" + rhs + "'");
    }
    const std::string type_name = strip(rhs.substr(0, open));
    GateType type;
    try {
      type = gate_type_from_string(type_name);
    } catch (const std::invalid_argument& e) {
      parse_error(line_no, e.what());
    }
    std::vector<std::string> fanins;
    std::stringstream args(rhs.substr(open + 1, close - open - 1));
    std::string tok;
    while (std::getline(args, tok, ',')) {
      tok = strip(tok);
      if (tok.empty()) parse_error(line_no, "empty fanin name");
      fanins.push_back(tok);
    }
    if (fanins.empty()) parse_error(line_no, "gate with no fanins");
    try {
      nl.add_gate(type, out_name, fanins);
    } catch (const std::exception& e) {
      parse_error(line_no, e.what());
    }
  }

  nl.finalize();
  return nl;
}

Netlist read_bench_string(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  return read_bench(in, name);
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error(ErrorCode::kIo, "cannot open bench file",
                ErrorContext{}.kv("path", path).str());
  }
  return read_bench(in, bench_file_netlist_name(path));
}

std::string bench_file_netlist_name(const std::string& path) {
  std::string name = path;
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const auto dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

void write_bench(std::ostream& out, const Netlist& netlist) {
  out << "# " << netlist.name() << " — written by mpe\n";
  out << "# " << netlist.num_inputs() << " inputs, " << netlist.num_outputs()
      << " outputs, " << netlist.num_gates() << " gates\n";
  for (NodeId in : netlist.inputs()) {
    out << "INPUT(" << netlist.node_name(in) << ")\n";
  }
  for (NodeId o : netlist.outputs()) {
    out << "OUTPUT(" << netlist.node_name(o) << ")\n";
  }
  out << '\n';
  for (const Gate& g : netlist.gates()) {
    std::string type = to_string(g.type);
    for (char& c : type) c = static_cast<char>(std::toupper(c));
    out << netlist.node_name(g.output) << " = " << type << '(';
    for (std::size_t i = 0; i < g.inputs.size(); ++i) {
      if (i) out << ", ";
      out << netlist.node_name(g.inputs[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Netlist& netlist) {
  std::ostringstream os;
  write_bench(os, netlist);
  return os.str();
}

}  // namespace mpe::circuit
