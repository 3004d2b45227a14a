// Extension from the paper's conclusion ("the generality of this approach
// makes it applicable to other fields ... for example, longest path delay
// estimation"): the same hyper-sample/EVT machinery applied to the per-cycle
// settle time produced by the event-driven simulator, estimating the
// circuit's maximum sensitizable delay statistically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "maxpower/estimator.hpp"
#include "sim/event_sim.hpp"
#include "vectors/generators.hpp"
#include "vectors/population.hpp"

namespace mpe::maxdelay {

/// Population adapter: each draw simulates a fresh vector pair and yields
/// the cycle's settle time [ns] (time of the last transition).
class DelayPopulation final : public vec::Population {
 public:
  /// Borrows the generator and simulator; both must outlive this object.
  DelayPopulation(const vec::PairGenerator& generator,
                  sim::EventSimulator& simulator);

  double draw(Rng& rng) override;
  std::optional<std::size_t> size() const override { return std::nullopt; }
  std::string description() const override;

  std::size_t draws() const { return draws_; }

 private:
  const vec::PairGenerator& generator_;
  sim::EventSimulator& simulator_;
  std::size_t draws_ = 0;
};

/// Convenience wrapper: runs the iterative EVT estimator on the delay
/// population, hyper-sample i drawn from stream_seed(seed, i) on the
/// caller's thread (the one simulator is not safe to share). The options'
/// finite correction is ignored (streaming population => endpoint estimate
/// mu-hat is used directly).
maxpower::EstimationResult estimate_max_delay(
    const vec::PairGenerator& generator, sim::EventSimulator& simulator,
    const maxpower::EstimatorOptions& options, std::uint64_t seed);

}  // namespace mpe::maxdelay
