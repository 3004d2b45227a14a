#include "maxpower/campaign.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "maxpower/circuit_cache.hpp"
#include "maxpower/engine.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/stopping.hpp"
#include "sim/delay.hpp"
#include "sim/power_eval.hpp"
#include "util/atomic_file.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "vectors/generators.hpp"

namespace mpe::maxpower {

namespace {

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw Error(ErrorCode::kIo, "cannot create campaign state directory",
              ErrorContext{}.kv("path", path).kv("errno", std::strerror(errno))
                  .str());
}

double number_field(const util::JsonValue& obj, std::string_view key,
                    double fallback, std::size_t line_no) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw Error(ErrorCode::kBadData, "manifest field must be a number",
                ErrorContext{}.kv("field", key).kv("line", line_no).str());
  }
  return v->as_number();
}

std::string string_field(const util::JsonValue& obj, std::string_view key,
                         std::size_t line_no) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr) return {};
  if (!v->is_string()) {
    throw Error(ErrorCode::kBadData, "manifest field must be a string",
                ErrorContext{}.kv("field", key).kv("line", line_no).str());
  }
  return v->as_string();
}

/// Everything a built-in job's population stands on; kept alive for the
/// whole job so retry attempts share one population (and its fault
/// counters, when tests decorate it). The cache entry is load-bearing: the
/// evaluator references its netlist, which must outlive an eviction.
struct JobRuntime {
  std::shared_ptr<const CachedCircuit> circuit;
  std::unique_ptr<sim::CyclePowerEvaluator> evaluator;
  std::unique_ptr<vec::PairGenerator> pairs;
  std::unique_ptr<vec::StreamingPopulation> streaming;
  vec::Population* population = nullptr;  ///< the one the estimator sees
};

/// An empty delay name keeps the historical loaded default.
sim::DelayModel job_delay_model(const CampaignJob& job) {
  return sim::delay_model_from_name(job.delay).value_or(
      sim::DelayModel::kFanoutLoaded);
}

std::unique_ptr<vec::PairGenerator> job_pairs(const CampaignJob& job,
                                              std::size_t inputs) {
  if (job.activity >= 0.0) {
    return std::make_unique<vec::HighActivityPairGenerator>(inputs,
                                                            job.activity);
  }
  return std::make_unique<vec::TransitionProbPairGenerator>(inputs,
                                                            job.tprob);
}

JobRuntime build_runtime(const CampaignJob& job, CircuitCache& cache) {
  JobRuntime rt;
  if (job.population != nullptr) {
    rt.population = job.population;
    return rt;
  }
  rt.circuit = cache.lookup(job);
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = job_delay_model(job);
  rt.evaluator = std::make_unique<sim::CyclePowerEvaluator>(
      rt.circuit->netlist(), eval_opt);
  rt.pairs = job_pairs(job, rt.circuit->netlist().num_inputs());
  rt.streaming = std::make_unique<vec::StreamingPopulation>(
      *rt.pairs, *rt.evaluator,
      eval_opt.delay_model == sim::DelayModel::kZero
          ? rt.circuit->program(eval_opt.tech)
          : nullptr);
  rt.population = rt.streaming.get();
  return rt;
}

CampaignJob parse_campaign_job_object(const util::JsonValue& v,
                                      std::size_t line_no) {
  static constexpr std::string_view kKnown[] = {
      "job", "circuit", "bench", "verilog", "seed", "epsilon",
      "confidence", "tprob", "activity", "max_hyper", "stop", "delay"};
  if (!v.is_object()) {
    throw Error(ErrorCode::kParse, "manifest line is not a JSON object",
                ErrorContext{}.kv("line", line_no).str());
  }
  for (const auto& key : v.keys()) {
    bool known = false;
    for (auto k : kKnown) known = known || key == k;
    if (!known) {
      throw Error(ErrorCode::kBadData, "unknown campaign manifest field",
                  ErrorContext{}.kv("field", key).kv("line", line_no).str());
    }
  }
  CampaignJob job;
  job.name = string_field(v, "job", line_no);
  if (!valid_campaign_job_name(job.name)) {
    throw Error(ErrorCode::kBadData,
                "manifest job name missing or invalid "
                "(want [A-Za-z0-9._-]{1,128})",
                ErrorContext{}.kv("line", line_no).kv("job", job.name).str());
  }
  job.circuit = string_field(v, "circuit", line_no);
  job.bench = string_field(v, "bench", line_no);
  job.verilog = string_field(v, "verilog", line_no);
  job.seed = static_cast<std::uint64_t>(number_field(v, "seed", 1.0, line_no));
  job.epsilon = number_field(v, "epsilon", 0.05, line_no);
  job.confidence = number_field(v, "confidence", 0.90, line_no);
  job.tprob = number_field(v, "tprob", 0.5, line_no);
  job.activity = number_field(v, "activity", -1.0, line_no);
  job.max_hyper_samples = static_cast<std::size_t>(
      number_field(v, "max_hyper", 500.0, line_no));
  job.stop = string_field(v, "stop", line_no);
  if (!job.stop.empty() && !interval_kind_from_name(job.stop)) {
    throw Error(ErrorCode::kBadData,
                "unknown stopping rule (want t | bootstrap)",
                ErrorContext{}.kv("stop", job.stop)
                    .kv("line", line_no).str());
  }
  job.delay = string_field(v, "delay", line_no);
  if (!job.delay.empty() && !sim::delay_model_from_name(job.delay)) {
    throw Error(ErrorCode::kBadData,
                "unknown delay model (want zero | unit | loaded)",
                ErrorContext{}.kv("delay", job.delay)
                    .kv("line", line_no).str());
  }
  return job;
}

/// Failure code of one finished run: kOk for converged, kDeadline /
/// kCancelled for interrupted, kNonConvergence for a clean budget stop.
/// kDataFault runs carry the underlying cause in the diagnostics records;
/// surface the most recent coded record so the retry classifier can tell an
/// injected transient (retryable) from genuinely bad data (fatal).
ErrorCode classify_run_result(const EstimationResult& r) {
  switch (r.stop_reason) {
    case StopReason::kConverged:
      return ErrorCode::kOk;
    case StopReason::kDeadlineExceeded:
      return ErrorCode::kDeadline;
    case StopReason::kCancelled:
      return ErrorCode::kCancelled;
    case StopReason::kDataFault: {
      const auto& records = r.diagnostics.records;
      for (auto it = records.rbegin(); it != records.rend(); ++it) {
        if (it->code != ErrorCode::kOk) return it->code;
      }
      return ErrorCode::kBadData;
    }
    case StopReason::kMaxHyperSamples:
    default:
      return ErrorCode::kNonConvergence;
  }
}

}  // namespace

CampaignJobOutcome finished_job_outcome(const CampaignJob& job,
                                        EstimationResult result) {
  CampaignJobOutcome outcome;
  outcome.name = job.name;
  outcome.attempts = 1;
  const ErrorCode code = classify_run_result(result);
  if (code == ErrorCode::kOk) {
    outcome.status = JobStatus::kDone;
  } else {
    outcome.status = code == ErrorCode::kCancelled ||
                             code == ErrorCode::kDeadline
                         ? JobStatus::kStopped
                         : JobStatus::kFailed;
    outcome.error = code;
  }
  outcome.result = std::move(result);
  return outcome;
}

EngineConfig campaign_engine_config(const CampaignJob& job) {
  EngineConfig cfg;
  cfg.options.epsilon = job.epsilon;
  cfg.options.confidence = job.confidence;
  cfg.options.max_hyper_samples = job.max_hyper_samples;
  if (!job.stop.empty()) {
    cfg.options.interval = *interval_kind_from_name(job.stop);
  }
  return cfg;
}

CampaignJobRuntime build_campaign_runtime(const CampaignJob& job,
                                          CircuitCache& cache) {
  auto rt = std::make_shared<JobRuntime>(build_runtime(job, cache));
  CampaignJobRuntime out;
  out.population = rt->population;
  out.keepalive = std::move(rt);
  return out;
}

CampaignJobRuntime build_campaign_runtime(const CampaignJob& job) {
  CircuitCache cache(1);
  return build_campaign_runtime(job, cache);
}

std::string campaign_population_description(const CampaignJob& job,
                                            CircuitCache& cache) {
  const auto circuit = cache.lookup(job);
  return vec::streaming_description(
      circuit->netlist().name(),
      *job_pairs(job, circuit->netlist().num_inputs()), job_delay_model(job));
}

bool valid_campaign_job_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxCampaignJobNameBytes) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  // "." / ".." would escape the state directory.
  return name != "." && name != "..";
}

std::string_view to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kStopped: return "stopped";
    case JobStatus::kSkipped: return "skipped";
  }
  return "failed";
}

std::optional<JobStatus> job_status_from_name(std::string_view name) {
  if (name == "done") return JobStatus::kDone;
  if (name == "failed") return JobStatus::kFailed;
  if (name == "stopped") return JobStatus::kStopped;
  if (name == "skipped") return JobStatus::kSkipped;
  return std::nullopt;
}

std::string campaign_job_to_json(const CampaignJob& job) {
  util::JsonFields f;
  f.add("job", job.name);
  if (!job.circuit.empty()) f.add("circuit", job.circuit);
  if (!job.bench.empty()) f.add("bench", job.bench);
  if (!job.verilog.empty()) f.add("verilog", job.verilog);
  f.add("seed", job.seed);
  f.add("epsilon", job.epsilon);
  f.add("confidence", job.confidence);
  f.add("tprob", job.tprob);
  if (job.activity >= 0.0) f.add("activity", job.activity);
  f.add("max_hyper", static_cast<std::uint64_t>(job.max_hyper_samples));
  if (!job.stop.empty()) f.add("stop", job.stop);
  if (!job.delay.empty()) f.add("delay", job.delay);
  return f.object();
}

CampaignJob parse_campaign_job_line(std::string_view json_line) {
  util::JsonValue v;
  try {
    v = util::parse_json(json_line);
  } catch (const Error& e) {
    throw Error(ErrorCode::kParse, "malformed campaign job line",
                ErrorContext{}.kv("detail", e.message()).str());
  }
  return parse_campaign_job_object(v, 1);
}

std::vector<CampaignJob> parse_campaign_manifest(std::string_view text) {
  std::vector<CampaignJob> jobs;
  std::map<std::string, bool> seen;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    util::JsonValue v;
    try {
      v = util::parse_json(line);
    } catch (const Error& e) {
      throw Error(ErrorCode::kParse, "malformed campaign manifest line",
                  ErrorContext{}.kv("line", line_no)
                      .kv("detail", e.message()).str());
    }
    CampaignJob job = parse_campaign_job_object(v, line_no);
    if (seen[job.name]) {
      throw Error(ErrorCode::kBadData, "duplicate job name in manifest",
                  ErrorContext{}.kv("job", job.name).kv("line", line_no).str());
    }
    seen[job.name] = true;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<CampaignJob> load_campaign_manifest(const std::string& path) {
  return parse_campaign_manifest(util::read_file(path));
}

std::string campaign_record_line(const CampaignJobOutcome& outcome) {
  util::JsonFields f;
  f.add("schema", "mpe.campaign");
  f.add("v", std::uint64_t{1});
  f.add("job", outcome.name);
  f.add("status", to_string(outcome.status));
  f.add("attempts", static_cast<std::uint64_t>(outcome.attempts));
  if (!outcome.worker.empty()) f.add("worker", outcome.worker);
  if (outcome.error != ErrorCode::kOk) f.add("error", to_string(outcome.error));
  if (outcome.status == JobStatus::kDone) {
    f.add("estimate", outcome.result.estimate);
    f.add("hyper_samples",
          static_cast<std::uint64_t>(outcome.result.hyper_samples));
    f.add("units", static_cast<std::uint64_t>(outcome.result.units_used));
    f.add("converged", outcome.result.converged);
  }
  return seal_ledger_line(f.object());
}

CampaignJobOutcome run_campaign_job(CampaignJob& job,
                                    const JobRunOptions& options,
                                    Rng& jitter_rng, CircuitCache& cache) {
  CampaignJobOutcome outcome;
  outcome.name = job.name;

  EngineConfig cfg = campaign_engine_config(job);
  cfg.options.control = options.control;
  // The tighter of the campaign deadline and the per-job budget wins; the
  // cancellation token is shared either way.
  if (!options.job_deadline.unlimited() &&
      options.job_deadline.remaining() <
          cfg.options.control.deadline.remaining()) {
    cfg.options.control.deadline = options.job_deadline;
  }
  cfg.options.checkpoint_path = options.state_dir + "/" + job.name + ".ckpt";
  cfg.options.checkpoint_every_k = options.checkpoint_every_k;
  const Engine engine(cfg);
  ParallelOptions par;
  par.threads = options.threads;

  // Build once per job: retry attempts share the population, so stateful
  // decorators (fault-injection counters) advance across attempts and a
  // transient fault does not re-fire on the retry.
  JobRuntime runtime;
  try {
    runtime = build_runtime(job, cache);
  } catch (const Error& e) {
    outcome.status = JobStatus::kFailed;
    outcome.error = e.code();
    return outcome;
  } catch (const std::exception&) {
    outcome.status = JobStatus::kFailed;
    outcome.error = ErrorCode::kInternal;
    return outcome;
  }

  EstimationResult best;
  const auto attempt = [&]() -> ErrorCode {
    try {
      best = engine.run(*runtime.population, job.seed, par);
      return classify_run_result(best);
    } catch (const Error& e) {
      return e.code();
    } catch (const std::exception&) {
      return ErrorCode::kInternal;
    }
  };
  const util::RetryOutcome retried = util::retry_with_backoff(
      options.retry, options.control, jitter_rng, attempt);

  outcome.attempts = retried.attempts;
  const util::StopCause after = options.control.should_stop();
  if (retried.ok) {
    outcome.status = JobStatus::kDone;
    outcome.result = std::move(best);
  } else if (retried.stopped != util::StopCause::kNone ||
             after != util::StopCause::kNone ||
             retried.last_error == ErrorCode::kCancelled ||
             retried.last_error == ErrorCode::kDeadline) {
    // The job was interrupted, not broken: its checkpoint stays on disk
    // and the next invocation resumes it.
    outcome.status = JobStatus::kStopped;
    outcome.error = retried.last_error;
  } else {
    outcome.status = JobStatus::kFailed;
    outcome.error = retried.last_error;
  }
  return outcome;
}

CampaignResult run_campaign(std::vector<CampaignJob>& jobs,
                            const CampaignOptions& options) {
  if (options.state_dir.empty()) {
    throw Error(ErrorCode::kPrecondition,
                "CampaignOptions::state_dir must be set");
  }
  ensure_directory(options.state_dir);
  const std::string report_path = options.report_path.empty()
                                      ? options.state_dir + "/campaign.jsonl"
                                      : options.report_path;
  const LedgerReadResult ledger_read = read_ledger_file(report_path);
  // Corrupt records are set aside, never trusted: an unreadable record can
  // never mark a job done, so the affected job re-runs from its checkpoint
  // and the ledger self-heals with a fresh sealed record.
  quarantine_ledger_lines(report_path, ledger_read.corrupt);
  const auto ledger = ledger_read.final_status();

  CampaignResult result;
  result.quarantined = ledger_read.corrupt.size();
  Rng jitter_rng(options.jitter_seed);
  CircuitCache cache(kDefaultCircuitCacheCapacity);

  JobRunOptions job_options;
  job_options.state_dir = options.state_dir;
  job_options.retry = options.retry;
  job_options.control = options.control;
  job_options.threads = options.threads;
  job_options.checkpoint_every_k = options.checkpoint_every_k;

  for (auto& job : jobs) {
    if (!valid_campaign_job_name(job.name)) {
      throw Error(ErrorCode::kBadData, "invalid campaign job name",
                  ErrorContext{}.kv("job", job.name).str());
    }
    if (const auto it = ledger.find(job.name);
        it != ledger.end() && it->second == "done") {
      CampaignJobOutcome outcome;
      outcome.name = job.name;
      outcome.status = JobStatus::kSkipped;
      ++result.skipped;
      result.jobs.push_back(std::move(outcome));
      continue;  // ledger says done: nothing to re-run, nothing to append
    }

    const util::StopCause before = options.control.should_stop();
    if (before != util::StopCause::kNone) {
      result.stopped = before;
      break;
    }

    CampaignJobOutcome outcome =
        run_campaign_job(job, job_options, jitter_rng, cache);
    if (outcome.status == JobStatus::kDone) ++result.done;
    if (outcome.status == JobStatus::kFailed) ++result.failed;
    append_ledger_line(report_path, campaign_record_line(outcome));
    const bool was_stopped = outcome.status == JobStatus::kStopped;
    const ErrorCode stop_error = outcome.error;
    result.jobs.push_back(std::move(outcome));
    if (was_stopped) {
      const util::StopCause after = options.control.should_stop();
      result.stopped = after != util::StopCause::kNone
                           ? after
                           : (stop_error == ErrorCode::kDeadline
                                  ? util::StopCause::kDeadline
                                  : util::StopCause::kCancelled);
      break;
    }
  }
  return result;
}

}  // namespace mpe::maxpower
