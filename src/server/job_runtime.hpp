// Per-job engine plumbing shared by the server's executors: building a
// job's population stack from the circuit cache, mapping job specs onto
// EstimatorOptions, running one job to a terminal outcome, and rendering
// the run report. Kept identical to the campaign runner's construction —
// that mirror is what makes server results byte-identical to batch runs,
// whichever executor (local thread pool or shard fleet) produced them.
#pragma once

#include <memory>
#include <string>

#include "maxpower/campaign.hpp"
#include "maxpower/estimator.hpp"
#include "server/circuit_cache.hpp"
#include "server/server_core.hpp"
#include "sim/power_eval.hpp"
#include "util/trace.hpp"
#include "vectors/generators.hpp"
#include "vectors/population.hpp"

namespace mpe::server {

/// Everything one job's population stands on. The CachedCircuit shared_ptr
/// is load-bearing: the evaluator holds a reference into its netlist, so
/// the entry must stay alive for the whole run even if the cache evicts it.
struct JobExec {
  std::shared_ptr<const CachedCircuit> circuit;
  std::unique_ptr<sim::CyclePowerEvaluator> evaluator;
  std::unique_ptr<vec::PairGenerator> pairs;
  std::unique_ptr<vec::StreamingPopulation> streaming;
};

/// Mirrors the campaign runner's build_runtime, with the netlist (and the
/// compiled tape, for zero-delay jobs) coming from the shared cache.
JobExec build_exec(const maxpower::CampaignJob& job, CircuitCache& cache);

/// The estimator configuration a job spec maps to — exactly the fields the
/// run report's header serializes, so a report rendered from these options
/// matches one rendered inside execute_job byte for byte. Control, tracer,
/// and checkpoint path are layered on by the caller (none reach the report).
maxpower::EstimatorOptions estimator_options_for(
    const maxpower::CampaignJob& job);

/// Same terminal-code mapping as the campaign runner's classify_result.
ErrorCode classify_exec_result(const maxpower::EstimationResult& r);

struct ExecJobResult {
  maxpower::CampaignJobOutcome outcome;
  std::string report;
};

/// Runs one granted job to a terminal outcome (never throws).
ExecJobResult execute_job(const ServerCore::Started& started,
                          util::Tracer* tracer, CircuitCache& cache,
                          const std::string& state_dir);

/// Renders the JSONL run report for an already-computed result (the fleet
/// path: the numbers came from Engine::replay over shard samples, the
/// population description from the job's fields and the cached netlist).
/// Returns "" when rendering fails — a broken report never fails the job.
std::string render_job_report(const maxpower::CampaignJob& job,
                              const maxpower::EstimationResult& result,
                              CircuitCache& cache);

}  // namespace mpe::server
