#include "vectors/power_db.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace mpe::vec {

FinitePopulation build_power_database(const PairGenerator& generator,
                                      sim::CyclePowerEvaluator& evaluator,
                                      const PowerDbOptions& options,
                                      Rng& rng) {
  MPE_EXPECTS(options.population_size >= 1);
  MPE_EXPECTS_MSG(
      generator.width() == evaluator.netlist().num_inputs(),
      "generator width must match the netlist primary input count");

  // Simulate in batches that end on progress ticks, so each tick reports
  // the units simulated so far, as a unit-by-unit loop would.
  PowerBatcher batcher(evaluator.netlist(), evaluator.options());
  const std::size_t total = options.population_size;
  const bool report = options.progress_stride != 0 && options.on_progress;
  const std::size_t step = report ? options.progress_stride : total;
  std::vector<double> values(total);
  for (std::size_t done = 0; done < total;) {
    const std::size_t n = std::min(step - done % step, total - done);
    batcher.simulate(generator, rng, std::span(values).subspan(done, n));
    done += n;
    if (report && done % step == 0) options.on_progress(done, total);
  }
  return FinitePopulation(
      std::move(values),
      evaluator.netlist().name() + " population (" +
          generator.description() + ", |V|=" +
          std::to_string(options.population_size) + ")");
}

}  // namespace mpe::vec
