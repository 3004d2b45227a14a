#include "vectors/parallel_db.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace mpe::vec {

FinitePopulation build_power_database_parallel(
    const circuit::Netlist& netlist, const PairGenerator& generator,
    const sim::PowerEvalOptions& eval_options,
    const ParallelPowerDbOptions& options) {
  MPE_EXPECTS(options.population_size >= 1);
  MPE_EXPECTS(options.chunk >= 1);
  MPE_EXPECTS_MSG(
      generator.width() == netlist.num_inputs(),
      "generator width must match the netlist primary input count");

  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const std::size_t total = options.population_size;
  const std::size_t num_chunks = (total + options.chunk - 1) / options.chunk;
  threads =
      static_cast<unsigned>(std::min<std::size_t>(threads, num_chunks));

  // One zero-delay tape shared by every slot; event timing needs none.
  std::shared_ptr<const sim::GateProgram> program;
  if (eval_options.delay_model == sim::DelayModel::kZero) {
    program = sim::GateProgram::compile(netlist, eval_options.tech);
  }
  std::vector<double> values(total);
  auto simulate_chunk = [&](PowerBatcher& batcher, std::size_t c) {
    Rng rng(stream_seed(options.seed, c));
    const std::size_t begin = c * options.chunk;
    const std::size_t end = std::min(begin + options.chunk, total);
    batcher.simulate(generator, rng,
                     std::span(values).subspan(begin, end - begin));
  };

  if (threads <= 1) {
    PowerBatcher batcher(netlist, eval_options, program);
    for (std::size_t c = 0; c < num_chunks; ++c) simulate_chunk(batcher, c);
  } else {
    // The pool caller participates, so `threads` total executors needs
    // threads - 1 pool workers. Batchers are per-slot: constructed lazily
    // on a slot's first chunk, reused for all its later chunks.
    util::ThreadPool pool(threads - 1);
    std::vector<std::optional<PowerBatcher>> batchers(pool.participants());
    pool.parallel_for_slotted(0, num_chunks,
                              [&](unsigned slot, std::size_t c) {
                                auto& batcher = batchers[slot];
                                if (!batcher)
                                  batcher.emplace(netlist, eval_options,
                                                  program);
                                simulate_chunk(*batcher, c);
                              });
  }

  return FinitePopulation(
      std::move(values),
      netlist.name() + " population (" + generator.description() +
          ", |V|=" + std::to_string(total) + ", parallel)");
}

}  // namespace mpe::vec
