#include "circuit/verilog_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "circuit/analysis.hpp"
#include "gen/arithmetic.hpp"
#include "gen/presets.hpp"
#include "util/status.hpp"

namespace {

namespace ckt = mpe::circuit;

const char* kSample = R"(
// half adder
module half_adder (a, b, s, c);
  input a, b;
  output s, c;
  xor g1 (s, a, b);
  and g2 (c, a, b);
endmodule
)";

TEST(VerilogIo, ParsesSimpleModule) {
  const auto nl = ckt::read_verilog_string(kSample);
  EXPECT_EQ(nl.name(), "half_adder");
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_outputs(), 2u);
  EXPECT_EQ(nl.num_gates(), 2u);
}

TEST(VerilogIo, ParsedModuleComputes) {
  auto nl = ckt::read_verilog_string(kSample);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const auto values = ckt::evaluate(
          nl, std::vector<std::uint8_t>{static_cast<std::uint8_t>(a),
                                        static_cast<std::uint8_t>(b)});
      EXPECT_EQ(values[*nl.find("s")], a ^ b);
      EXPECT_EQ(values[*nl.find("c")], a & b);
    }
  }
}

TEST(VerilogIo, InstanceNamesOptional) {
  const char* text = R"(
module m (a, y);
  input a;
  output y;
  not (y, a);
endmodule
)";
  const auto nl = ckt::read_verilog_string(text);
  EXPECT_EQ(nl.num_gates(), 1u);
}

TEST(VerilogIo, BlockCommentsAndWires) {
  const char* text = R"(
module m (a, b, y);
  input a, b; /* two
  line comment */ output y;
  wire t;
  nand n1 (t, a, b);
  not n2 (y, t);
endmodule
)";
  const auto nl = ckt::read_verilog_string(text);
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.depth(), 2u);
}

TEST(VerilogIo, RoundTripPreservesFunction) {
  auto original = mpe::gen::ripple_carry_adder(5, "rca5");
  const std::string text = ckt::write_verilog_string(original);
  auto back = ckt::read_verilog_string(text);
  EXPECT_EQ(back.num_inputs(), original.num_inputs());
  EXPECT_EQ(back.num_outputs(), original.num_outputs());
  EXPECT_EQ(back.num_gates(), original.num_gates());
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> in(original.num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::uint8_t>((trial >> (i % 5)) & 1);
    }
    const auto v1 = ckt::evaluate(original, in);
    const auto v2 = ckt::evaluate(back, in);
    for (std::size_t o = 0; o < original.outputs().size(); ++o) {
      EXPECT_EQ(v1[original.outputs()[o]], v2[back.outputs()[o]]);
    }
  }
}

TEST(VerilogIo, RoundTripLargeGeneratedCircuit) {
  auto original = mpe::gen::build_preset("c432", 3);
  const std::string text = ckt::write_verilog_string(original);
  auto back = ckt::read_verilog_string(text);
  EXPECT_EQ(back.num_gates(), original.num_gates());
  EXPECT_EQ(back.depth(), original.depth());
}

TEST(VerilogIo, OutputAliasForInputPort) {
  // A primary input marked as output becomes a buffered alias port.
  ckt::Netlist nl("passthru");
  nl.add_input("a");
  nl.add_gate(ckt::GateType::kNot, "y", {"a"});
  nl.mark_output("y");
  nl.mark_output("a");  // input doubling as observable output
  nl.finalize();
  const std::string text = ckt::write_verilog_string(nl);
  EXPECT_NE(text.find("a_out"), std::string::npos);
  auto back = ckt::read_verilog_string(text);
  EXPECT_EQ(back.num_outputs(), 2u);
}

TEST(VerilogIo, FileRoundTrip) {
  auto nl = mpe::gen::ripple_carry_adder(3, "rca3");
  const std::string path = ::testing::TempDir() + "/mpe_rca3.v";
  {
    std::ofstream out(path);
    ckt::write_verilog(out, nl);
  }
  const auto back = ckt::read_verilog_file(path);
  EXPECT_EQ(back.num_gates(), nl.num_gates());
  std::remove(path.c_str());
}

TEST(VerilogIo, ErrorsCarryLineNumbers) {
  try {
    ckt::read_verilog_string(
        "module m (a, y);\n  input a;\n  output y;\n  assign y = a;\n"
        "endmodule\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

/// The error code `read` throws; kOk when it does not throw.
template <typename Read>
mpe::ErrorCode thrown_code(Read read) {
  try {
    read();
  } catch (const mpe::Error& e) {
    return e.code();
  }
  return mpe::ErrorCode::kOk;
}

TEST(VerilogIo, RejectsUndeclaredSignals) {
  EXPECT_EQ(thrown_code([] {
              ckt::read_verilog_string(
                  "module m (a, y);\n  input a;\n  output y;\n"
                  "  not (y, ghost);\nendmodule\n");
            }),
            mpe::ErrorCode::kParse);
}

TEST(VerilogIo, RejectsVectors) {
  EXPECT_EQ(thrown_code([] {
              ckt::read_verilog_string(
                  "module m (a, y);\n  input [3:0] a;\n  output y;\n"
                  "endmodule\n");
            }),
            mpe::ErrorCode::kParse);
}

TEST(VerilogIo, DuplicateInputIsParseErrorAtItsLine) {
  try {
    ckt::read_verilog_string(
        "module m (a, y);\n  input a;\n  input a;\n  output y;\n"
        "  not (y, a);\nendmodule\n");
    FAIL() << "duplicate input accepted";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kParse);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(VerilogIo, RejectsMissingFile) {
  EXPECT_EQ(thrown_code([] { ckt::read_verilog_file("/no/such/file.v"); }),
            mpe::ErrorCode::kIo);
}

}  // namespace
