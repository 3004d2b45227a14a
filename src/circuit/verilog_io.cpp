#include "circuit/verilog_io.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/status.hpp"

namespace mpe::circuit {

namespace {

struct Token {
  std::string text;
  std::size_t line;
};

[[noreturn]] void verilog_error(std::size_t line, const std::string& what) {
  throw Error(ErrorCode::kParse,
              "verilog parse error at line " + std::to_string(line) + ": " +
                  what,
              ErrorContext{}.kv("line", line).str());
}

/// Tokenizes: identifiers, and the punctuation ( ) , ; as single tokens.
/// Strips // line comments and /* */ block comments.
std::vector<Token> tokenize(std::istream& in) {
  std::vector<Token> tokens;
  std::string line;
  std::size_t line_no = 0;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::string cur;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!cur.empty()) {
          tokens.push_back({cur, line_no});
          cur.clear();
        }
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == ';') {
        if (!cur.empty()) {
          tokens.push_back({cur, line_no});
          cur.clear();
        }
        tokens.push_back({std::string(1, c), line_no});
        continue;
      }
      cur += c;
    }
    if (!cur.empty()) tokens.push_back({cur, line_no});
  }
  return tokens;
}

bool is_primitive(const std::string& word) {
  return word == "and" || word == "nand" || word == "or" || word == "nor" ||
         word == "xor" || word == "xnor" || word == "not" || word == "buf";
}

bool valid_identifier(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '$')) {
      return false;
    }
  }
  return true;
}

}  // namespace

Netlist read_verilog(std::istream& in) {
  const auto tokens = tokenize(in);
  std::size_t pos = 0;
  auto peek = [&]() -> const Token& {
    if (pos >= tokens.size()) {
      verilog_error(tokens.empty() ? 1 : tokens.back().line,
                    "unexpected end of file");
    }
    return tokens[pos];
  };
  auto next = [&]() -> const Token& {
    const Token& t = peek();
    ++pos;
    return t;
  };
  auto expect = [&](const std::string& want) {
    const Token& t = next();
    if (t.text != want) {
      verilog_error(t.line, "expected '" + want + "', got '" + t.text + "'");
    }
  };

  if (peek().text != "module") {
    verilog_error(peek().line, "expected 'module'");
  }
  next();
  const std::string module_name = next().text;
  Netlist nl(module_name);

  // Port list (names only; directions come from declarations).
  expect("(");
  while (peek().text != ")") {
    next();  // port name; nothing to do yet
    if (peek().text == ",") next();
  }
  expect(")");
  expect(";");

  std::unordered_set<std::string> declared;
  std::vector<std::string> output_names;

  while (peek().text != "endmodule") {
    const Token head = next();
    if (head.text == "input" || head.text == "output" ||
        head.text == "wire") {
      for (;;) {
        const Token name = next();
        if (name.text == "[") {
          verilog_error(name.line, "vector ports are not supported");
        }
        if (!valid_identifier(name.text)) {
          verilog_error(name.line, "bad identifier '" + name.text + "'");
        }
        declared.insert(name.text);
        if (head.text == "input") {
          try {
            nl.add_input(name.text);
          } catch (const std::exception& e) {
            verilog_error(name.line, e.what());
          }
        } else if (head.text == "output") {
          output_names.push_back(name.text);
        } else {
          nl.declare(name.text);
        }
        const Token sep = next();
        if (sep.text == ";") break;
        if (sep.text != ",") {
          verilog_error(sep.line, "expected ',' or ';' in declaration");
        }
      }
      continue;
    }
    if (head.text == "assign") {
      verilog_error(head.line,
                    "assign statements are not supported (structural "
                    "primitives only)");
    }
    if (!is_primitive(head.text)) {
      verilog_error(head.line, "unsupported construct '" + head.text +
                                   "' (expected a primitive gate)");
    }
    // Primitive instance: TYPE [instname] ( out, in... ) ;
    GateType type = gate_type_from_string(head.text);
    Token t = next();
    if (t.text != "(") {
      // instance name present
      if (!valid_identifier(t.text)) {
        verilog_error(t.line, "bad instance name '" + t.text + "'");
      }
      expect("(");
    }
    std::vector<std::string> pins;
    for (;;) {
      const Token pin = next();
      if (!valid_identifier(pin.text)) {
        verilog_error(pin.line, "bad signal name '" + pin.text + "'");
      }
      if (declared.count(pin.text) == 0) {
        verilog_error(pin.line, "undeclared signal '" + pin.text + "'");
      }
      pins.push_back(pin.text);
      const Token sep = next();
      if (sep.text == ")") break;
      if (sep.text != ",") {
        verilog_error(sep.line, "expected ',' or ')' in pin list");
      }
    }
    expect(";");
    if (pins.size() < 2) {
      verilog_error(head.line, "primitive needs an output and inputs");
    }
    const std::string out = pins.front();
    pins.erase(pins.begin());
    try {
      nl.add_gate(type, out, pins);
    } catch (const std::exception& e) {
      verilog_error(head.line, e.what());
    }
  }

  for (const auto& name : output_names) nl.mark_output(name);
  nl.finalize();
  return nl;
}

Netlist read_verilog_string(const std::string& text) {
  std::istringstream in(text);
  return read_verilog(in);
}

Netlist read_verilog_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error(ErrorCode::kIo, "cannot open verilog file",
                ErrorContext{}.kv("path", path).str());
  }
  return read_verilog(in);
}

void write_verilog(std::ostream& out, const Netlist& netlist) {
  // Name table: keep valid identifiers, replace the rest deterministically.
  std::vector<std::string> name(netlist.num_nodes());
  std::unordered_set<std::string> used;
  for (NodeId n = 0; n < netlist.num_nodes(); ++n) {
    std::string candidate = netlist.node_name(n);
    if (!valid_identifier(candidate)) {
      candidate = "sig_" + std::to_string(n);
    }
    while (used.count(candidate)) candidate += "_";
    used.insert(candidate);
    name[n] = candidate;
  }

  std::string module = netlist.name();
  if (!valid_identifier(module)) module = "top";

  // An output port that is also a primary input needs a buffer alias.
  std::vector<std::pair<std::string, NodeId>> aliased_outputs;
  std::vector<NodeId> plain_outputs;
  for (NodeId o : netlist.outputs()) {
    if (netlist.is_input(o)) {
      aliased_outputs.emplace_back(name[o] + "_out", o);
    } else {
      plain_outputs.push_back(o);
    }
  }

  out << "// " << netlist.name() << " — written by mpe\n";
  out << "module " << module << " (";
  bool first = true;
  for (NodeId i : netlist.inputs()) {
    out << (first ? "" : ", ") << name[i];
    first = false;
  }
  for (NodeId o : plain_outputs) {
    out << (first ? "" : ", ") << name[o];
    first = false;
  }
  for (const auto& [alias, node] : aliased_outputs) {
    (void)node;
    out << (first ? "" : ", ") << alias;
    first = false;
  }
  out << ");\n";

  for (NodeId i : netlist.inputs()) {
    out << "  input " << name[i] << ";\n";
  }
  for (NodeId o : plain_outputs) {
    out << "  output " << name[o] << ";\n";
  }
  for (const auto& [alias, node] : aliased_outputs) {
    (void)node;
    out << "  output " << alias << ";\n";
  }
  for (NodeId n = 0; n < netlist.num_nodes(); ++n) {
    if (netlist.is_input(n)) continue;
    bool is_plain_output = false;
    for (NodeId o : plain_outputs) {
      if (o == n) {
        is_plain_output = true;
        break;
      }
    }
    if (!is_plain_output) out << "  wire " << name[n] << ";\n";
  }
  out << '\n';

  std::size_t inst = 0;
  for (const Gate& g : netlist.gates()) {
    out << "  " << to_string(g.type) << " g" << inst++ << " ("
        << name[g.output];
    for (NodeId in : g.inputs) out << ", " << name[in];
    out << ");\n";
  }
  for (const auto& [alias, node] : aliased_outputs) {
    out << "  buf g" << inst++ << " (" << alias << ", " << name[node]
        << ");\n";
  }
  out << "endmodule\n";
}

std::string write_verilog_string(const Netlist& netlist) {
  std::ostringstream os;
  write_verilog(os, netlist);
  return os.str();
}

}  // namespace mpe::circuit
