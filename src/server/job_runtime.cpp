#include "server/job_runtime.hpp"

#include <sstream>
#include <utility>

#include "maxpower/engine.hpp"
#include "maxpower/run_report.hpp"

namespace mpe::server {

namespace {

std::string write_report(const maxpower::EstimationResult& result,
                         const maxpower::EstimatorOptions& options,
                         const std::string& population,
                         const util::Tracer* tracer = nullptr) {
  try {
    std::ostringstream report;
    maxpower::RunReportOptions ro;
    ro.tracer = tracer;
    ro.population = population;
    write_run_report(report, result, options, ro);
    return std::move(report).str();
  } catch (const std::exception&) {
    return {};  // a broken report never fails the job itself
  }
}

}  // namespace

ExecJobResult execute_job(const ServerCore::Started& started,
                          util::Tracer* tracer, maxpower::CircuitCache& cache,
                          const std::string& state_dir) {
  maxpower::EngineConfig cfg = maxpower::campaign_engine_config(started.job);
  cfg.options.control.cancel = started.cancel;
  if (started.deadline != ServerCore::Clock::time_point::max()) {
    cfg.options.control.deadline = util::Deadline::at(started.deadline);
  }
  if (!state_dir.empty()) {
    cfg.options.checkpoint_path = state_dir + "/" + started.job.name + ".ckpt";
  }
  cfg.options.tracer = tracer;
  const maxpower::Engine engine(cfg);
  maxpower::ParallelOptions par;
  par.threads = started.threads;

  std::string population;
  maxpower::EstimationResult result;
  ErrorCode error = ErrorCode::kOk;
  try {
    const maxpower::CampaignJobRuntime runtime =
        maxpower::build_campaign_runtime(started.job, cache);
    population = runtime.population->description();
    result = engine.run(*runtime.population, started.job.seed, par);
  } catch (const Error& e) {
    error = e.code();
  } catch (const std::exception&) {
    error = ErrorCode::kInternal;
  }
  ExecJobResult out;
  if (error != ErrorCode::kOk) {
    out.outcome.name = started.job.name;
    out.outcome.attempts = 1;
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = error;
    return out;
  }
  out.outcome = maxpower::finished_job_outcome(started.job, std::move(result));
  out.report =
      write_report(out.outcome.result, cfg.options, population, tracer);
  return out;
}

std::string render_job_report(const maxpower::CampaignJob& job,
                              const maxpower::EstimationResult& result,
                              maxpower::CircuitCache& cache) {
  std::string population;
  try {
    population = maxpower::campaign_population_description(job, cache);
  } catch (const std::exception&) {
    return {};
  }
  return write_report(result, maxpower::campaign_engine_config(job).options,
                      population);
}

}  // namespace mpe::server
