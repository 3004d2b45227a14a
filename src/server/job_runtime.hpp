// Per-job engine plumbing shared by the server's executors: running one
// granted job to a terminal outcome and rendering the run report. What a
// job means — its population (maxpower::build_campaign_runtime over the
// server's circuit cache), its engine composition
// (maxpower::campaign_engine_config) and its terminal status
// (maxpower::finished_job_outcome) — is decided in maxpower, by the same
// functions the campaign runner and the shard worker call, so server
// results are byte-identical to batch runs whichever executor (local
// thread pool or shard fleet) produced them.
#pragma once

#include <string>

#include "maxpower/campaign.hpp"
#include "maxpower/circuit_cache.hpp"
#include "maxpower/estimator.hpp"
#include "server/server_core.hpp"
#include "util/trace.hpp"

namespace mpe::server {

struct ExecJobResult {
  maxpower::CampaignJobOutcome outcome;
  std::string report;
};

/// Runs one granted job to a terminal outcome (never throws).
ExecJobResult execute_job(const ServerCore::Started& started,
                          util::Tracer* tracer, maxpower::CircuitCache& cache,
                          const std::string& state_dir);

/// Renders the JSONL run report for an already-computed result (the fleet
/// path: the numbers came from Engine::replay over shard samples, the
/// population description from the job's fields and the cached netlist).
/// Returns "" when rendering fails — a broken report never fails the job.
std::string render_job_report(const maxpower::CampaignJob& job,
                              const maxpower::EstimationResult& result,
                              maxpower::CircuitCache& cache);

}  // namespace mpe::server
