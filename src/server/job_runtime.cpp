#include "server/job_runtime.hpp"

#include <sstream>
#include <utility>

#include "maxpower/engine.hpp"
#include "maxpower/run_report.hpp"
#include "maxpower/stopping.hpp"
#include "maxpower/tail_fitter.hpp"

namespace mpe::server {

namespace {

sim::DelayModel delay_model_for(const maxpower::CampaignJob& job) {
  if (job.delay == "zero") return sim::DelayModel::kZero;
  if (job.delay == "unit") return sim::DelayModel::kUnit;
  return sim::PowerEvalOptions{}.delay_model;
}

std::unique_ptr<vec::PairGenerator> make_pairs(
    const maxpower::CampaignJob& job, std::size_t inputs) {
  if (job.activity >= 0.0) {
    return std::make_unique<vec::HighActivityPairGenerator>(inputs,
                                                            job.activity);
  }
  return std::make_unique<vec::TransitionProbPairGenerator>(inputs,
                                                            job.tprob);
}

}  // namespace

JobExec build_exec(const maxpower::CampaignJob& job, CircuitCache& cache) {
  JobExec e;
  e.circuit = cache.lookup(job);
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = delay_model_for(job);
  e.evaluator = std::make_unique<sim::CyclePowerEvaluator>(
      e.circuit->netlist(), eval_opt);
  e.pairs = make_pairs(job, e.circuit->netlist().num_inputs());
  // Zero-delay jobs adopt the cache's shared tape (compiled lazily, once per
  // cached circuit), so no job compiles its own.
  e.streaming = std::make_unique<vec::StreamingPopulation>(
      *e.pairs, *e.evaluator,
      eval_opt.delay_model == sim::DelayModel::kZero
          ? e.circuit->program(eval_opt.tech)
          : nullptr);
  return e;
}

maxpower::EstimatorOptions estimator_options_for(
    const maxpower::CampaignJob& job) {
  maxpower::EstimatorOptions est;
  est.epsilon = job.epsilon;
  est.confidence = job.confidence;
  est.max_hyper_samples = job.max_hyper_samples;
  if (!job.stop.empty()) {
    est.interval = *maxpower::interval_kind_from_name(job.stop);
  }
  return est;
}

ErrorCode classify_exec_result(const maxpower::EstimationResult& r) {
  switch (r.stop_reason) {
    case maxpower::StopReason::kConverged:
      return ErrorCode::kOk;
    case maxpower::StopReason::kDeadlineExceeded:
      return ErrorCode::kDeadline;
    case maxpower::StopReason::kCancelled:
      return ErrorCode::kCancelled;
    case maxpower::StopReason::kDataFault: {
      const auto& records = r.diagnostics.records;
      for (auto it = records.rbegin(); it != records.rend(); ++it) {
        if (it->code != ErrorCode::kOk) return it->code;
      }
      return ErrorCode::kBadData;
    }
    case maxpower::StopReason::kMaxHyperSamples:
    default:
      return ErrorCode::kNonConvergence;
  }
}

ExecJobResult execute_job(const ServerCore::Started& started,
                          util::Tracer* tracer, CircuitCache& cache,
                          const std::string& state_dir) {
  using Clock = ServerCore::Clock;
  ExecJobResult out;
  out.outcome.name = started.job.name;
  out.outcome.attempts = 1;

  maxpower::EstimatorOptions est = estimator_options_for(started.job);
  est.control.cancel = started.cancel;
  if (started.deadline != Clock::time_point::max()) {
    est.control.deadline = util::Deadline::at(started.deadline);
  }
  if (!state_dir.empty()) {
    est.checkpoint_path = state_dir + "/" + started.job.name + ".ckpt";
  }
  est.tracer = tracer;

  maxpower::EngineConfig cfg;
  if (!started.job.fitter.empty()) {
    // "mle" stays on the default (null) fitter so an explicit request for
    // the default does not perturb the checkpoint fingerprint.
    const maxpower::TailFitterKind kind =
        *maxpower::tail_fitter_kind_from_name(started.job.fitter);
    if (kind != maxpower::TailFitterKind::kWeibullMle) {
      cfg.fitter = maxpower::make_tail_fitter(kind);
    }
  }
  cfg.options = est;
  const maxpower::Engine engine(cfg);
  maxpower::ParallelOptions par;
  par.threads = started.threads;

  JobExec exec;
  try {
    exec = build_exec(started.job, cache);
  } catch (const Error& e) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = e.code();
    return out;
  } catch (const std::exception&) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = ErrorCode::kInternal;
    return out;
  }

  maxpower::EstimationResult result;
  try {
    result = engine.run(*exec.streaming, started.job.seed, par);
  } catch (const Error& e) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = e.code();
    return out;
  } catch (const std::exception&) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = ErrorCode::kInternal;
    return out;
  }

  const ErrorCode code = classify_exec_result(result);
  if (code == ErrorCode::kOk) {
    out.outcome.status = maxpower::JobStatus::kDone;
  } else if (code == ErrorCode::kCancelled || code == ErrorCode::kDeadline) {
    out.outcome.status = maxpower::JobStatus::kStopped;
    out.outcome.error = code;
  } else {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = code;
  }
  const std::string population = exec.streaming->description();
  out.outcome.result = std::move(result);

  std::ostringstream report;
  try {
    maxpower::RunReportOptions ro;
    ro.tracer = tracer;
    ro.population = population;
    write_run_report(report, out.outcome.result, est, ro);
    out.report = std::move(report).str();
  } catch (const std::exception&) {
    out.report.clear();  // a broken report never fails the job itself
  }
  return out;
}

std::string render_job_report(const maxpower::CampaignJob& job,
                              const maxpower::EstimationResult& result,
                              CircuitCache& cache) {
  try {
    // The same description execute_job's population reports, built from
    // the job's fields; the cache lookup is a hit after the first job per
    // circuit.
    const auto circuit = cache.lookup(job);
    const auto pairs = make_pairs(job, circuit->netlist().num_inputs());
    const std::string population = vec::streaming_description(
        circuit->netlist().name(), *pairs, delay_model_for(job));
    std::ostringstream report;
    maxpower::RunReportOptions ro;
    ro.population = population;
    write_run_report(report, result, estimator_options_for(job), ro);
    return std::move(report).str();
  } catch (const std::exception&) {
    return {};
  }
}

}  // namespace mpe::server
