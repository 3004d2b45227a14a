#include "circuit/bench_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "circuit/analysis.hpp"
#include "gen/arithmetic.hpp"
#include "util/status.hpp"

namespace {

namespace ckt = mpe::circuit;

const char* kSample = R"(
# ISCAS-85 style sample
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G8)
OUTPUT(G9)

G5 = NAND(G1, G2)
G6 = NOT(G3)
G8 = AND(G5, G6)
G9 = XOR(G5, G3)
)";

TEST(BenchIo, ParsesSample) {
  const auto nl = ckt::read_bench_string(kSample, "sample");
  EXPECT_EQ(nl.num_inputs(), 3u);
  EXPECT_EQ(nl.num_outputs(), 2u);
  EXPECT_EQ(nl.num_gates(), 4u);
  EXPECT_TRUE(nl.finalized());
  EXPECT_EQ(nl.gate(nl.driver(*nl.find("G5"))).type, ckt::GateType::kNand);
}

TEST(BenchIo, ParsedNetlistEvaluatesCorrectly) {
  auto nl = ckt::read_bench_string(kSample);
  // G1=1 G2=1 G3=0: G5=0, G6=1, G8=0, G9=0^0=0... G9 = XOR(G5,G3) = 0.
  auto vals = ckt::evaluate(nl, std::vector<std::uint8_t>{1, 1, 0});
  EXPECT_EQ(vals[*nl.find("G8")], 0);
  EXPECT_EQ(vals[*nl.find("G9")], 0);
  // G1=0: G5=1, G8 = AND(1, NOT G3).
  vals = ckt::evaluate(nl, std::vector<std::uint8_t>{0, 1, 0});
  EXPECT_EQ(vals[*nl.find("G8")], 1);
  EXPECT_EQ(vals[*nl.find("G9")], 1);
}

TEST(BenchIo, HandlesForwardReferences) {
  const char* fwd = R"(
INPUT(a)
OUTPUT(z)
z = NOT(m)
m = NOT(a)
)";
  const auto nl = ckt::read_bench_string(fwd);
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.depth(), 2u);
}

TEST(BenchIo, RoundTripPreservesStructureAndFunction) {
  auto original = mpe::gen::ripple_carry_adder(4, "rca4");
  const std::string text = ckt::write_bench_string(original);
  auto reparsed = ckt::read_bench_string(text, "rca4");
  EXPECT_EQ(reparsed.num_inputs(), original.num_inputs());
  EXPECT_EQ(reparsed.num_outputs(), original.num_outputs());
  EXPECT_EQ(reparsed.num_gates(), original.num_gates());
  // Functional equivalence on a few vectors.
  for (int seed = 0; seed < 16; ++seed) {
    std::vector<std::uint8_t> in(original.num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::uint8_t>((seed >> (i % 4)) & 1);
    }
    const auto v1 = ckt::evaluate(original, in);
    const auto v2 = ckt::evaluate(reparsed, in);
    for (std::size_t o = 0; o < original.outputs().size(); ++o) {
      EXPECT_EQ(v1[original.outputs()[o]], v2[reparsed.outputs()[o]]);
    }
  }
}

TEST(BenchIo, FileRoundTrip) {
  auto nl = mpe::gen::ripple_carry_adder(2, "rca2");
  const std::string path = ::testing::TempDir() + "/mpe_rca2.bench";
  {
    std::ofstream out(path);
    ckt::write_bench(out, nl);
  }
  const auto back = ckt::read_bench_file(path);
  EXPECT_EQ(back.num_gates(), nl.num_gates());
  EXPECT_EQ(back.name(), "mpe_rca2");
  std::remove(path.c_str());
}

TEST(BenchIo, MissingFileThrows) {
  EXPECT_THROW(ckt::read_bench_file("/nonexistent/path.bench"),
               std::runtime_error);
}

TEST(BenchIo, MalformedLinesReportLineNumbers) {
  try {
    ckt::read_bench_string("INPUT(a)\nbogus line here\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(BenchIo, DuplicateOrDrivenInputIsParseErrorAtItsLine) {
  const std::pair<const char*, const char*> cases[] = {
      {"INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "line 2"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nINPUT(y)\n", "line 4"}};
  for (const auto& [text, line] : cases) {
    try {
      ckt::read_bench_string(text);
      FAIL() << "accepted: " << text;
    } catch (const mpe::Error& e) {
      EXPECT_EQ(e.code(), mpe::ErrorCode::kParse);
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos);
    }
  }
}

TEST(BenchIo, RejectsUnknownGateType) {
  EXPECT_THROW(
      ckt::read_bench_string("INPUT(a)\nINPUT(b)\nz = FROB(a, b)\n"),
      std::runtime_error);
}

TEST(BenchIo, RejectsEmptyFanin) {
  EXPECT_THROW(ckt::read_bench_string("INPUT(a)\nz = AND()\n"),
               std::runtime_error);
}

TEST(BenchIo, CommentsAndBlankLinesIgnored) {
  const char* text = R"(
# full line comment
INPUT(a)   # trailing comment

OUTPUT(z)
z = NOT(a)  # another
)";
  const auto nl = ckt::read_bench_string(text);
  EXPECT_EQ(nl.num_gates(), 1u);
}

}  // namespace
