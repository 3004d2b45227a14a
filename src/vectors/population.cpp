#include "vectors/population.hpp"

#include <algorithm>
#include <type_traits>

#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace mpe::vec {

namespace {

/// Draw-path metrics, labeled by population kind. Batched paths count once
/// per batch (one add of the batch size), keeping the per-unit hot loops
/// untouched. Catalog in docs/OBSERVABILITY.md.
struct PopulationMetrics {
  util::Counter finite_units;
  util::Counter finite_batches;
  util::Counter streaming_units;
  util::Counter streaming_batches;

  PopulationMetrics() {
    auto& reg = util::MetricRegistry::global();
    finite_units = reg.counter("mpe_population_units_total", "kind=finite");
    finite_batches =
        reg.counter("mpe_population_batches_total", "kind=finite");
    streaming_units =
        reg.counter("mpe_population_units_total", "kind=streaming");
    streaming_batches =
        reg.counter("mpe_population_batches_total", "kind=streaming");
  }
};

PopulationMetrics& pm() {
  static PopulationMetrics m;
  return m;
}

}  // namespace

FinitePopulation::FinitePopulation(std::vector<double> values,
                                   std::string description)
    : values_(std::move(values)), desc_(std::move(description)) {
  MPE_EXPECTS(!values_.empty());
  true_max_ = *std::max_element(values_.begin(), values_.end());
}

double FinitePopulation::draw(Rng& rng) {
  pm().finite_units.inc();
  return values_[rng.below(values_.size())];
}

void FinitePopulation::draw_batch(std::span<double> out, Rng& rng) {
  // Same index-sampling stream as draw(), without the per-unit virtual call.
  const std::size_t n = values_.size();
  for (double& v : out) v = values_[rng.below(n)];
  pm().finite_units.inc(out.size());
  pm().finite_batches.inc();
}

double FinitePopulation::qualified_fraction(double epsilon) const {
  MPE_EXPECTS(epsilon > 0.0 && epsilon < 1.0);
  const double threshold = true_max_ * (1.0 - epsilon);
  std::size_t qualified = 0;
  for (double v : values_) {
    if (v >= threshold) ++qualified;
  }
  return static_cast<double>(qualified) / static_cast<double>(values_.size());
}

namespace {

std::variant<sim::CompiledSimulator, sim::BatchEventSimulator>
make_batch_simulator(const circuit::Netlist& netlist,
                     const sim::PowerEvalOptions& options,
                     std::shared_ptr<const sim::GateProgram> program) {
  if (options.delay_model != sim::DelayModel::kZero) {
    MPE_EXPECTS_MSG(program == nullptr,
                    "a compiled tape requires the zero-delay model");
    sim::EventSimOptions eo;
    eo.tech = options.tech;
    eo.delay_model = options.delay_model;
    eo.inertial = options.inertial;
    return sim::BatchEventSimulator(netlist, eo);
  }
  if (program == nullptr) {
    program = sim::GateProgram::compile(netlist, options.tech);
  }
  return sim::CompiledSimulator(std::move(program), sim::best_kernel());
}

}  // namespace

PowerBatcher::PowerBatcher(const circuit::Netlist& netlist,
                           const sim::PowerEvalOptions& options,
                           std::shared_ptr<const sim::GateProgram> program)
    : sim_(make_batch_simulator(netlist, options, std::move(program))) {}

void PowerBatcher::simulate(const PairGenerator& generator, Rng& rng,
                            std::span<double> out) {
  // Draw each pass's pairs in scalar order (identical RNG consumption):
  // as packed rows for the compiled tape, as pairs for the event
  // simulator.
  std::visit(
      [&](auto& sim) {
        for (std::size_t done = 0; done < out.size();) {
          const std::size_t lanes =
              std::min(sim.lanes(), out.size() - done);
          if constexpr (std::is_same_v<std::decay_t<decltype(sim)>,
                                       sim::CompiledSimulator>) {
            generator.generate_rows(rng, lanes, rows_, sim.kernel());
            sim.evaluate_rows(rows_, results_);
          } else {
            pairs_.resize(lanes);
            for (auto& p : pairs_) generator.generate_into(rng, p);
            sim.evaluate_batch(pairs_, results_);
          }
          for (std::size_t k = 0; k < lanes; ++k) {
            out[done + k] = results_[k].power_mw;
          }
          done += lanes;
        }
      },
      sim_);
}

std::optional<sim::SimdKernel> PowerBatcher::kernel() const {
  if (const auto* compiled = std::get_if<sim::CompiledSimulator>(&sim_)) {
    return compiled->kernel();
  }
  return std::nullopt;
}

StreamingPopulation::StreamingPopulation(
    const PairGenerator& generator, sim::CyclePowerEvaluator& evaluator,
    std::shared_ptr<const sim::GateProgram> program)
    : generator_(generator), evaluator_(evaluator) {
  MPE_EXPECTS_MSG(
      generator.width() == evaluator.netlist().num_inputs(),
      "generator width must match the netlist primary input count");
  // Compile the zero-delay tape once per population unless a cached one was
  // handed in; slots share it.
  if (evaluator_.options().delay_model == sim::DelayModel::kZero &&
      program == nullptr) {
    program = sim::GateProgram::compile(evaluator_.netlist(),
                                        evaluator_.options().tech);
  }
  program_ = std::move(program);
  auto slot = make_slot();
  kernel_ = slot->kernel();
  release_slot(std::move(slot));
}

StreamingPopulation::~StreamingPopulation() = default;

double StreamingPopulation::draw(Rng& rng) {
  const VectorPair p = generator_.generate(rng);
  draws_.fetch_add(1, std::memory_order_relaxed);
  pm().streaming_units.inc();
  return evaluator_.power_mw(p.first, p.second);
}

std::unique_ptr<PowerBatcher> StreamingPopulation::make_slot() const {
  return std::make_unique<PowerBatcher>(evaluator_.netlist(),
                                        evaluator_.options(), program_);
}

std::unique_ptr<PowerBatcher> StreamingPopulation::acquire_slot() {
  {
    std::lock_guard<std::mutex> lock(sim_mutex_);
    if (!idle_slots_.empty()) {
      auto slot = std::move(idle_slots_.back());
      idle_slots_.pop_back();
      return slot;
    }
  }
  return make_slot();
}

void StreamingPopulation::release_slot(std::unique_ptr<PowerBatcher> slot) {
  std::lock_guard<std::mutex> lock(sim_mutex_);
  idle_slots_.push_back(std::move(slot));
}

void StreamingPopulation::draw_batch(std::span<double> out, Rng& rng) {
  pm().streaming_batches.inc();
  // The slot is private to this call, so concurrent batches (each with its
  // own Rng) never share mutable simulation state, and its buffers persist
  // across passes and batches.
  auto slot = acquire_slot();
  slot->simulate(generator_, rng, out);
  draws_.fetch_add(out.size(), std::memory_order_relaxed);
  pm().streaming_units.inc(out.size());
  release_slot(std::move(slot));
}

std::string StreamingPopulation::description() const {
  return streaming_description(evaluator_.netlist().name(), generator_,
                               evaluator_.options().delay_model);
}

std::string streaming_description(const std::string& circuit,
                                  const PairGenerator& generator,
                                  sim::DelayModel delay) {
  return "streaming population over " + circuit + " (" +
         generator.description() + ") [" + sim::to_string(delay) + " delay" +
         (delay == sim::DelayModel::kZero ? "" : ", energy order 2") + "]";
}

}  // namespace mpe::vec
