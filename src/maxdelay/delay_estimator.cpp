#include "maxdelay/delay_estimator.hpp"

#include "maxpower/engine.hpp"
#include "util/contracts.hpp"

namespace mpe::maxdelay {

DelayPopulation::DelayPopulation(const vec::PairGenerator& generator,
                                 sim::EventSimulator& simulator)
    : generator_(generator), simulator_(simulator) {
  MPE_EXPECTS_MSG(
      generator.width() == simulator.netlist().num_inputs(),
      "generator width must match the netlist primary input count");
}

double DelayPopulation::draw(Rng& rng) {
  const vec::VectorPair p = generator_.generate(rng);
  ++draws_;
  return simulator_.evaluate(p.first, p.second).settle_time_ns;
}

std::string DelayPopulation::description() const {
  return "cycle settle-time population (" + generator_.description() + ")";
}

maxpower::EstimationResult estimate_max_delay(
    const vec::PairGenerator& generator, sim::EventSimulator& simulator,
    const maxpower::EstimatorOptions& options, std::uint64_t seed) {
  DelayPopulation pop(generator, simulator);
  // Same engine as max-power estimation: settle times are just another unit
  // stream, so the default strategy composition applies unchanged.
  const maxpower::Engine engine(maxpower::EngineConfig{options, nullptr, {}});
  return engine.run(pop, seed);
}

}  // namespace mpe::maxdelay
