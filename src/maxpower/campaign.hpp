// Resilient multi-circuit campaign runner: estimate maximum power for a
// manifest of circuits, surviving crashes, transient faults, and operator
// interrupts without losing or repeating work.
//
// Durability model (docs/ROBUSTNESS.md, "Durability & resume"):
//   * Each job checkpoints its estimation run independently to
//     <state_dir>/<job>.ckpt (maxpower/checkpoint.hpp), so a crash mid-job
//     loses at most checkpoint_every_k hyper-samples of that one job.
//   * The campaign appends one JSONL line per finished job to the report
//     file. Re-invoking the campaign reads the report first, skips jobs
//     already recorded as done, retries failed ones, and resumes in-flight
//     ones from their checkpoints — the report is the campaign's ledger,
//     the checkpoints are its working state.
//   * Transient failures (I/O hiccups, injected faults) are retried under a
//     jittered-exponential-backoff RetryPolicy (util/retry.hpp); fatal ones
//     (parse errors, bad data, precondition violations) fail the job
//     immediately. Cancellation or a deadline stops the campaign between
//     attempts and between jobs, recording the in-flight job as stopped.
//
// It also owns what a job means: every executor builds a job's population
// (build_campaign_runtime), engine (campaign_engine_config) and terminal
// status (finished_job_outcome) here, so their results are byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "maxpower/engine.hpp"
#include "maxpower/estimator.hpp"
#include "util/deadline.hpp"
#include "util/retry.hpp"
#include "vectors/population.hpp"

namespace mpe::maxpower {

class CircuitCache;  // maxpower/circuit_cache.hpp

/// One campaign job: which circuit, which input model, which estimator
/// budget. Parsed from a manifest line (see load_campaign_manifest) or
/// constructed directly by tests.
struct CampaignJob {
  std::string name;      ///< unique job id: report key + checkpoint filename
  std::string circuit;   ///< generator preset name (gen::build_preset)
  std::string bench;     ///< ISCAS-85 .bench path (overrides circuit)
  std::string verilog;   ///< structural Verilog path (overrides circuit)
  std::uint64_t seed = 1;
  double epsilon = 0.05;
  double confidence = 0.90;
  /// Input model: transition probability unless activity is set.
  double tprob = 0.5;
  double activity = -1.0;  ///< >= 0 selects the high-activity generator
  std::size_t max_hyper_samples = 500;
  /// Stopping rule: "t" | "bootstrap", validated at manifest parse time.
  /// Empty selects the paper's Student-t interval.
  std::string stop;
  /// Simulation delay model: "zero" | "unit" | "loaded"; empty selects
  /// loaded (the historical campaign default). Zero-delay populations draw
  /// their batches on the compiled gate tape, bit-identical to the scalar
  /// zero-delay stream for a seed.
  std::string delay;
  /// Test hook: when non-null the campaign estimates against this
  /// population instead of building one from the circuit fields. Non-owning;
  /// must outlive the campaign. Built-in or injected, the population is
  /// constructed ONCE per job, so stateful decorators (fault injection
  /// counters) persist across retry attempts — a transient fault does not
  /// re-fire on the retry.
  vec::Population* population = nullptr;
};

/// Campaign-wide configuration.
struct CampaignOptions {
  /// Directory for per-job checkpoints and (by default) the report. Created
  /// if missing. Must be non-empty.
  std::string state_dir;
  /// JSONL ledger path; empty means <state_dir>/campaign.jsonl.
  std::string report_path;
  util::RetryPolicy retry;
  util::RunControl control;  ///< polled between jobs, attempts, and samples
  /// Forwarded to the estimator (result-invariant).
  unsigned threads = 1;
  std::size_t checkpoint_every_k = 1;
  /// Seed for retry backoff jitter (deterministic replay in tests).
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// Terminal status of one job within a campaign invocation.
enum class JobStatus : std::uint8_t {
  kDone,     ///< converged; result recorded
  kFailed,   ///< fatal error or retries exhausted
  kStopped,  ///< cancellation/deadline cut the job short (checkpoint kept)
  kSkipped,  ///< already done per the report ledger; not re-run
};

std::string_view to_string(JobStatus status);
std::optional<JobStatus> job_status_from_name(std::string_view name);

/// Outcome of one job.
struct CampaignJobOutcome {
  std::string name;
  JobStatus status = JobStatus::kFailed;
  std::size_t attempts = 0;            ///< estimation attempts this invocation
  ErrorCode error = ErrorCode::kOk;    ///< last failure code (kFailed/kStopped)
  EstimationResult result;             ///< valid when status == kDone
  std::string worker;                  ///< executing worker id (distributed)
};

/// Outcome of one campaign invocation.
struct CampaignResult {
  std::vector<CampaignJobOutcome> jobs;
  std::size_t done = 0;     ///< jobs completed this invocation
  std::size_t failed = 0;
  std::size_t skipped = 0;  ///< jobs skipped via the ledger
  std::size_t quarantined = 0;  ///< corrupt ledger records set aside
  util::StopCause stopped = util::StopCause::kNone;  ///< set when cut short
};

/// Parses a campaign manifest: one JSON object per line, `#` comments and
/// blank lines ignored. Recognized fields: "job" (required, unique),
/// "circuit" | "bench" | "verilog", "seed", "epsilon", "confidence",
/// "tprob", "activity", "max_hyper", "stop" ("t" | "bootstrap"), "delay"
/// ("zero" | "unit" | "loaded"). Throws mpe::Error(kParse) on malformed
/// JSON, kBadData on missing/duplicate names, unknown fields, or an
/// unrecognized stop/delay name.
std::vector<CampaignJob> load_campaign_manifest(const std::string& path);
std::vector<CampaignJob> parse_campaign_manifest(std::string_view text);

/// Serializes one job back to its manifest JSON line (inverse of
/// parse_campaign_manifest for a single job; the `population` test hook is
/// not serialized). Used by the distributed coordinator to ship a job spec
/// inside a lease.
std::string campaign_job_to_json(const CampaignJob& job);

/// Parses a single manifest-format JSON object (one job). Same validation
/// as parse_campaign_manifest. Throws mpe::Error(kParse/kBadData).
CampaignJob parse_campaign_job_line(std::string_view json_line);

/// Longest usable job id in bytes (ledger key + checkpoint filename).
inline constexpr std::size_t kMaxCampaignJobNameBytes = 128;

/// True when `name` is usable as a job id (ledger key + checkpoint
/// filename): [A-Za-z0-9._-]{1,128}, not "." or "..".
bool valid_campaign_job_name(const std::string& name);

/// Renders the sealed "mpe.campaign" ledger record for one outcome (see
/// maxpower/ledger.hpp for the seal). Shared by run_campaign and the
/// distributed coordinator so both write byte-compatible ledgers.
std::string campaign_record_line(const CampaignJobOutcome& outcome);

/// Engine composition for one job: the estimator options derived from the
/// manifest fields. Shared by the single-process
/// runner, the shard worker, and the coordinator's shard assembly — all
/// three building from the same function is what makes a sharded campaign
/// byte-identical to a single-process one. Cross-cutting fields (run
/// control, deadline, checkpoint path, tracer) are left default for the
/// caller to fill in.
EngineConfig campaign_engine_config(const CampaignJob& job);

/// Terminal outcome of one finished single-attempt run of `job` (a server
/// job, or a fleet job assembled from its shards): kDone when it
/// converged, kStopped (kCancelled / kDeadline) when interrupted, kFailed
/// otherwise — with the most recent coded diagnostic for a data fault and
/// kNonConvergence for a clean budget stop. The result is kept whatever the
/// status.
CampaignJobOutcome finished_job_outcome(const CampaignJob& job,
                                        EstimationResult result);

/// The population one job estimates against, plus whatever it stands on
/// (cached netlist, evaluator, generator), type-erased so every executor
/// runs the exact same value stream. The population pointer stays valid
/// while `keepalive` is held.
struct CampaignJobRuntime {
  std::shared_ptr<void> keepalive;
  vec::Population* population = nullptr;
};

/// The one builder of a job's population, shared by every executor: the
/// test-hook population when set, otherwise a streaming population over
/// the netlist from `cache` (preset, .bench or Verilog), the job's input
/// model and its delay model. A zero-delay population adopts the cache's
/// compiled tape, so a circuit compiles once per cache. Throws mpe::Error
/// on unreadable circuits.
CampaignJobRuntime build_campaign_runtime(const CampaignJob& job,
                                          CircuitCache& cache);

/// The same over a private one-entry cache (callers that build one job).
CampaignJobRuntime build_campaign_runtime(const CampaignJob& job);

/// The description() of the population build_campaign_runtime builds for a
/// circuit-backed job, without building it (the fleet's run reports).
std::string campaign_population_description(const CampaignJob& job,
                                            CircuitCache& cache);

/// How one job is executed (the per-job slice of CampaignOptions). Shared
/// by the single-process campaign loop and the distributed worker so a job
/// runs under the exact same engine configuration either way — that shared
/// construction is what makes distributed results bit-identical.
struct JobRunOptions {
  std::string state_dir;     ///< required: per-job checkpoints live here
  util::RetryPolicy retry;
  util::RunControl control;  ///< campaign-/worker-level brakes
  util::Deadline job_deadline;  ///< per-job budget; combined with control
  unsigned threads = 1;
  std::size_t checkpoint_every_k = 1;
};

/// Runs one job to a terminal outcome (never throws; failures land in the
/// outcome). Retries transient failures under options.retry using
/// `jitter_rng` for backoff jitter. The circuit comes from `cache`. The
/// job's checkpoint path is <state_dir>/<name>.ckpt; a pre-existing
/// checkpoint is resumed.
CampaignJobOutcome run_campaign_job(CampaignJob& job,
                                    const JobRunOptions& options,
                                    Rng& jitter_rng, CircuitCache& cache);

/// Runs every job not already recorded as done in the report ledger,
/// through one circuit cache, so jobs on one circuit parse it once.
/// Appends one sealed JSONL line per job processed this invocation (schema
/// "mpe.campaign" v1 + CRC seal; see docs/ROBUSTNESS.md). Corrupt ledger
/// records are quarantined to <report>.quarantine and the affected jobs
/// re-run from their checkpoints. Throws only for campaign-level failures
/// (unusable state_dir, unreadable ledger); per-job failures are reported
/// in the result, never thrown.
CampaignResult run_campaign(std::vector<CampaignJob>& jobs,
                            const CampaignOptions& options);

}  // namespace mpe::maxpower
