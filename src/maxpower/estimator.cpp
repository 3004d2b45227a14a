#include "maxpower/estimator.hpp"

#include "maxpower/engine.hpp"
#include "util/jsonl.hpp"

namespace mpe::maxpower {

std::string_view to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged: return "converged";
    case StopReason::kMaxHyperSamples: return "max-hyper-samples";
    case StopReason::kDeadlineExceeded: return "deadline-exceeded";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDataFault: return "data-fault";
  }
  return "unknown";
}

void RunDiagnostics::note(Severity severity, ErrorCode code,
                          std::string message, std::string context) {
  if (records.size() >= kMaxRecords) return;
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.message = std::move(message);
  d.context = std::move(context);
  records.push_back(std::move(d));
}

std::string RunDiagnostics::to_json() const {
  std::string records_json = "[";
  for (const Diagnostic& d : records) {
    if (records_json.size() > 1) records_json += ',';
    records_json += util::JsonFields{}
                        .add("severity", to_string(d.severity))
                        .add("code", to_string(d.code))
                        .add("message", d.message)
                        .add("context", d.context)
                        .object();
  }
  records_json += ']';
  return util::JsonFields{}
      .add("degenerate_fits", degenerate_fits)
      // Run-report schema v1 field; no policy refits with PWM any more.
      .add("pwm_refits", std::size_t{0})
      .add("constant_samples", constant_samples)
      .add("discarded_hyper_samples", discarded_hyper_samples)
      .add("nonfinite_units", nonfinite_units)
      .add("small_population", small_population)
      .raw("records", records_json)
      .object();
}

// A thin wrapper over the layered engine (maxpower/engine.hpp) with the
// default strategy composition — the paper's reversed-Weibull MLE fitter
// and the budget / run-control / options.interval stopping chain.
EstimationResult estimate_max_power(vec::Population& population,
                                    const EstimatorOptions& options,
                                    std::uint64_t seed,
                                    const ParallelOptions& parallel) {
  Engine engine(EngineConfig{options, nullptr, {}});
  return engine.run(population, seed, parallel);
}

}  // namespace mpe::maxpower
