#include "seq/seq_presets.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "maxpower/estimator.hpp"
#include "seq/seq_sim.hpp"
#include "util/rng.hpp"

namespace {

namespace seq = mpe::seq;

TEST(SeqPresets, CatalogSane) {
  const auto& cat = seq::seq_preset_catalog();
  ASSERT_GE(cat.size(), 8u);
  for (const auto& p : cat) {
    EXPECT_GT(p.num_inputs, 0u);
    EXPECT_GT(p.num_ffs, 0u);
    EXPECT_GT(p.num_gates, p.num_ffs);
  }
  EXPECT_EQ(seq::seq_preset_info("s344").num_ffs, 15u);
  EXPECT_THROW(seq::seq_preset_info("s999"), std::invalid_argument);
}

TEST(SeqPresets, CountsMatchCatalog) {
  for (const char* name : {"s27", "s298", "s344", "s1423"}) {
    const auto s = seq::build_seq_preset(name, 1);
    const auto& info = seq::seq_preset_info(name);
    EXPECT_EQ(s.num_free_inputs(), info.num_inputs) << name;
    EXPECT_EQ(s.num_state_bits(), info.num_ffs) << name;
    EXPECT_EQ(s.core().num_outputs(), info.num_outputs) << name;
    // Core gates = target gates (the D buffers replace FF cells).
    EXPECT_NEAR(static_cast<double>(s.core().num_gates()),
                static_cast<double>(info.num_gates), 2.0)
        << name;
  }
}

TEST(SeqPresets, DeterministicPerSeed) {
  const auto a = seq::build_seq_preset("s386", 7);
  const auto b = seq::build_seq_preset("s386", 7);
  ASSERT_EQ(a.core().num_gates(), b.core().num_gates());
  for (std::size_t g = 0; g < a.core().num_gates(); ++g) {
    EXPECT_EQ(a.core().gate(g).inputs, b.core().gate(g).inputs);
  }
}

TEST(SeqPresets, StateActuallyEvolves) {
  auto s = seq::build_seq_preset("s298", 2);
  seq::SequentialSimulator sim(s);
  sim.reset();
  mpe::Rng rng(3);
  bool changed = false;
  for (int cycle = 0; cycle < 40 && !changed; ++cycle) {
    std::vector<std::uint8_t> in(s.num_free_inputs());
    for (auto& b : in) b = rng.bernoulli(0.5) ? 1 : 0;
    sim.step(in);
    for (auto bit : sim.state()) {
      if (bit) changed = true;
    }
  }
  EXPECT_TRUE(changed) << "state stuck at reset";
}

TEST(SeqPresets, EstimatorRunsOnPreset) {
  auto s = seq::build_seq_preset("s344", 4);
  seq::SequentialSimulator sim(s);
  seq::SequencePopulation pop(sim);
  mpe::maxpower::EstimatorOptions opt;
  opt.epsilon = 0.10;
  opt.max_hyper_samples = 60;
  const auto r = mpe::maxpower::estimate_max_power(pop, opt, 5);
  EXPECT_GT(r.estimate, 0.0);
  EXPECT_GE(r.hyper_samples, 3u);
}

}  // namespace
