#include "maxdelay/delay_estimator.hpp"

#include <gtest/gtest.h>

#include "gen/arithmetic.hpp"
#include "gen/trees.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace md = mpe::maxdelay;
namespace sim = mpe::sim;

sim::EventSimOptions unit_delay() {
  sim::EventSimOptions o;
  o.delay_model = sim::DelayModel::kUnit;
  return o;
}

TEST(DelayPopulation, DrawsSettleTimes) {
  auto nl = mpe::gen::ripple_carry_adder(8);
  sim::EventSimulator ev(nl, unit_delay());
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  md::DelayPopulation pop(gen, ev);
  EXPECT_FALSE(pop.size().has_value());
  mpe::Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const double d = pop.draw(rng);
    EXPECT_GE(d, 0.0);
    // Unit-delay settle time can never exceed depth * unit delay.
    EXPECT_LE(d, static_cast<double>(nl.depth()) *
                     unit_delay().tech.unit_delay_ns + 1e-9);
  }
  EXPECT_EQ(pop.draws(), 30u);
}

TEST(DelayPopulation, WidthMismatchRejected) {
  auto nl = mpe::gen::ripple_carry_adder(8);
  sim::EventSimulator ev(nl, unit_delay());
  const mpe::vec::UniformPairGenerator wrong(4);
  EXPECT_THROW(md::DelayPopulation(wrong, ev), mpe::ContractViolation);
}

TEST(EstimateMaxDelay, ApproachesStructuralDepthBound) {
  // For a ripple adder under unit delays the maximum sensitizable delay is
  // close to the full carry chain. The EVT estimate should land between the
  // typical random-pair settle time and the structural bound.
  auto nl = mpe::gen::ripple_carry_adder(12);
  sim::EventSimulator ev(nl, unit_delay());
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mpe::maxpower::EstimatorOptions opt;
  opt.epsilon = 0.08;
  const auto r = md::estimate_max_delay(gen, ev, opt, 2);
  const double bound =
      static_cast<double>(nl.depth()) * unit_delay().tech.unit_delay_ns;
  EXPECT_GT(r.estimate, 0.4 * bound);
  EXPECT_LT(r.estimate, 1.3 * bound);
  EXPECT_GT(r.units_used, 0u);
}

TEST(EstimateMaxDelay, EstimateAtLeastObservedDelays) {
  auto nl = mpe::gen::array_multiplier(5);
  sim::EventSimOptions o;
  o.delay_model = sim::DelayModel::kFanoutLoaded;
  sim::EventSimulator ev(nl, o);
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mpe::maxpower::EstimatorOptions opt;
  opt.epsilon = 0.10;
  const auto r = md::estimate_max_delay(gen, ev, opt, 3);

  // Sample some delays directly; none should exceed the estimate by much.
  md::DelayPopulation pop(gen, ev);
  mpe::Rng rng2(4);
  double observed_max = 0.0;
  for (int i = 0; i < 300; ++i) {
    observed_max = std::max(observed_max, pop.draw(rng2));
  }
  EXPECT_GT(r.estimate, 0.85 * observed_max);
}

}  // namespace
