// Campaign coordinator: partitions a campaign manifest into job leases and
// serves them to workers over the dist protocol, surviving the death of any
// participant — including itself.
//
// Fault model and the exactly-once argument (docs/ROBUSTNESS.md,
// "Distributed campaigns"):
//   * A lease is a time-bounded claim on one job. Workers renew it by
//     heartbeating; a worker that dies (kill -9, network gone) simply stops
//     renewing, the lease expires, and the job returns to the pending pool
//     after a jittered backoff (util/retry's policy — same taxonomy as
//     job-level retries). Reassignment is bounded: a job that burns
//     max_assignments leases is recorded failed, so a worker-killing job
//     cannot grind the fleet forever.
//   * All durable state is the append-only sealed ledger (maxpower/ledger)
//     plus the per-job checkpoints workers write through the engine. The
//     coordinator itself is stateless across restarts: a restarted
//     coordinator re-reads the ledger, treats recorded-done jobs as
//     skipped, and *adopts* leases from workers that heartbeat for a job it
//     does not think is leased — so in-flight work survives a coordinator
//     kill -9 without re-execution.
//   * "done" results are accepted from stale lease holders too (the engine
//     is deterministic, so a late result is byte-identical to the one the
//     current holder would produce), deduplicated against job state, and
//     appended to the ledger exactly once. Workers re-send results until
//     acked; at-least-once delivery + state dedup = exactly-once ledger.
//   * Under shard_size > 0 the same machinery runs at shard granularity
//     (docs/ROBUSTNESS.md, "Sharded jobs"): each job is split into
//     contiguous wave-index ranges [lo, hi) leased independently to
//     protocol-v2 workers. Heartbeat renewal, expiry, bounded re-dispatch,
//     straggler speculation (second holder, first valid result wins), and
//     restart adoption all key on job:shard; done-shard payloads are
//     appended to the ledger inline so a restarted coordinator rebuilds
//     in-flight jobs from the ledger alone, and the contiguous done prefix
//     is folded through Engine::replay into a final record byte-identical
//     to a single-process run.
//
// The lease mechanics themselves — grant/heartbeat/expiry/backoff-gated
// reassignment/adoption/straggler eligibility — live in the shared
// scheduling substrate (sched/lease.hpp); a whole-job claim is a lease with
// max_holders 1, a shard claim one with max_holders 2. CoordinatorCore is
// the campaign policy on top: what to encode, when a job is terminal, what
// the ledger records. It stays a pure state machine over injected time —
// every transition takes an explicit `now` — so lease expiry, backoff
// gating, and drain are unit-testable without sockets or sleeps.
// serve_campaign() wraps it in the poll loop that owns real connections and
// the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/shard.hpp"
#include "sched/lease.hpp"
#include "util/deadline.hpp"
#include "util/metrics.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace mpe::dist {

struct CoordinatorConfig {
  std::vector<maxpower::CampaignJob> jobs;  ///< manifest order
  /// Coordinator-local durable state: the ledger defaults to
  /// <state_dir>/campaign.jsonl. Workers resolve job/shard checkpoints
  /// under their own WorkerConfig::state_dir — the directories need not be
  /// shared, which is what makes cross-host fleets work (a worker on
  /// another machine resumes from its local checkpoints, and a worker with
  /// a fresh directory simply recomputes — determinism makes the result
  /// byte-identical either way; see docs/ROBUSTNESS.md).
  std::string state_dir;
  std::string report_path;
  /// Lease duration; workers must heartbeat well within it. Also the upper
  /// bound on how stale a dead worker's claim can get.
  std::chrono::milliseconds lease{5000};
  /// Per-job wall-clock budget shipped inside each lease (0 = none).
  std::chrono::milliseconds job_deadline{0};
  /// A job's total lease grants (first assignment included) before the
  /// coordinator gives up and records it failed.
  std::size_t max_assignments = 5;
  /// Backoff between reassignments of one job (expiry storms should not
  /// thrash); initial_backoff/multiplier/max_backoff/jitter are used.
  util::RetryPolicy reassign;
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Intra-job wave sharding: when > 0, each job is split into contiguous
  /// wave-index ranges of this many attempts and leased shard-by-shard to
  /// protocol-v2 workers (maxpower/shard). 0 = whole-job leases only.
  /// Protocol-v1 workers in a mixed fleet still get whole jobs: a sharded
  /// job with no shard progress yet is flipped to whole-job mode on demand.
  std::size_t shard_size = 0;
  /// A leased shard older than this with idle capacity elsewhere is a
  /// straggler: it is speculatively re-issued to a second worker and the
  /// first valid result wins (0 = twice the lease duration).
  std::chrono::milliseconds straggler_after{0};
  /// Adaptive shard sizing (`--shard-size auto`): partition each job at the
  /// size that aims one shard at shard_target_latency, from an EWMA of
  /// observed per-attempt shard latency, clamped to
  /// [shard_size_floor, shard_size_ceiling]. Implies sharded mode even when
  /// shard_size is 0; before the first observation the partition uses
  /// shard_size (or the floor when shard_size is 0) — small first shards
  /// make the estimate converge quickly. Jobs keep the partition they were
  /// created with; only later-created jobs see the updated size.
  bool shard_auto = false;
  std::size_t shard_size_floor = 16;
  std::size_t shard_size_ceiling = 4096;
  std::chrono::milliseconds shard_target_latency{2000};
  double shard_latency_alpha = 0.2;  ///< EWMA smoothing factor in (0, 1]
  /// When false, protocol-v1 workers are never handed whole jobs and
  /// whole-job claims are never adopted onto sharded jobs. The estimation
  /// server's fleet executor needs this: only assembled shard results carry
  /// the full EstimationResult (CI bounds, diagnostics) a server result
  /// line is made of — the dist whole-job result frame does not.
  bool whole_job_fallback = true;
  /// Estimation-as-a-service mode: the job set is dynamic (add_job), so a
  /// worker request finding nothing pending is answered `wait`, never
  /// `drain` (begin_drain() still wins once called). Jobs are retired once
  /// take_completions() hands them out, so state scales with live jobs.
  bool persistent = false;
  /// Optional metric sink: shard latency observations, the adaptive
  /// shard-size level and the live-job count (mpe_coord_* series). Null =
  /// no metrics.
  util::MetricRegistry* metrics = nullptr;
};

/// Where one job stands inside the coordinator.
enum class JobPhase : std::uint8_t { kPending, kLeased, kDone, kFailed };

/// The deterministic heart of the coordinator. Not thread-safe; one owner.
class CoordinatorCore {
 public:
  using Clock = sched::Clock;

  /// Reads the ledger (quarantining corrupt records), marks recorded-done
  /// jobs, and creates the state directory. Throws on unusable config.
  explicit CoordinatorCore(CoordinatorConfig config);

  /// Handles one decoded worker message at time `now`; returns the encoded
  /// reply line. Appends ledger records for terminal transitions.
  std::string handle(const Message& msg, Clock::time_point now);

  /// Dynamically registers one more job (estimation-as-a-service mode;
  /// usually combined with `persistent`). The job is partitioned with the
  /// shard size in effect right now and becomes grantable immediately.
  /// Throws Error(kBadData) on an invalid or duplicate name.
  void add_job(maxpower::CampaignJob job);

  /// Marks a non-terminal job stopped/cancelled — the submitter is gone or
  /// cancelled it. The outcome is recorded (ledger + completions) and every
  /// later heartbeat for the job is answered revoke, so workers abandon its
  /// shards. Returns false when the job is unknown or already terminal.
  bool abandon(const std::string& job);

  /// Drains the outcomes that turned terminal since the last call, in
  /// record order. The estimation server's fleet executor maps these back
  /// to submit tickets; the campaign CLI never calls it (summary() already
  /// aggregates). In persistent mode the returned jobs are retired: their
  /// spec, lease and shard state are erased, and later messages for them
  /// get the unknown-job replies (heartbeat: revoke; result: error, which
  /// workers treat as settled) with no ledger append. Their names become
  /// reusable.
  std::vector<maxpower::CampaignJobOutcome> take_completions();

  /// The shard size a job created right now would be partitioned with
  /// (fixed shard_size, or the EWMA-driven adaptive size under shard_auto).
  std::size_t shard_size_now() const;

  /// Expires overdue leases; records jobs that exhausted their assignment
  /// budget as failed. Call once per loop iteration.
  void tick(Clock::time_point now);

  /// The earliest lease expiry tick() has yet to act on (max() when nothing
  /// is leased): the serving loops block no longer than this.
  Clock::time_point next_expiry() const;

  /// Stops granting leases (SIGTERM drain). In-flight leases keep being
  /// served so running jobs can finish and report.
  void begin_drain() { draining_ = true; }
  bool draining() const { return draining_; }

  bool any_leased() const;
  /// True when every job is terminal (done or failed, including
  /// ledger-skipped ones).
  bool finished() const;

  /// Jobs granted since construction (monotonic; includes re-grants).
  std::size_t leases_granted() const { return leases_granted_; }

  /// Invocation summary in run_campaign's shape: skipped = done per the
  /// pre-existing ledger, done/failed = transitions this run.
  maxpower::CampaignResult summary() const;

  JobPhase phase(const std::string& job) const;  ///< test/observability hook

  /// Shards completed across all jobs (monotonic; test/observability hook).
  std::size_t shards_done() const { return shards_done_; }

  /// Jobs the coordinator still holds state for (test/observability hook;
  /// in persistent mode, the jobs not yet handed out by take_completions).
  std::size_t live_jobs() const { return jobs_.size(); }

 private:
  /// Whether a job hands out whole-job or shard leases. Sharded is the
  /// default under shard_size > 0 but a job with no shard progress can be
  /// flipped to whole-job mode to serve a protocol-v1 worker.
  enum class JobMode : std::uint8_t { kWhole, kSharded };

  /// One wave-index range of a sharded job: the shard payload around its
  /// sched::Lease (max_holders 2: primary + one straggler re-issue).
  struct ShardState {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    sched::Lease lease;
    std::vector<maxpower::ShardSample> samples;  ///< filled when done
  };

  struct JobState {
    maxpower::CampaignJob job;
    JobMode mode = JobMode::kWhole;
    bool skipped = false;   ///< done per the ledger before this run
    /// Terminal flavor once `lease` is done: failed vs done.
    bool failed = false;
    /// The whole-job claim (max_holders 1). For a sharded job it stays
    /// pending while shards carry the claims; record() completes it either
    /// way, so lease.phase == kDone means the job is terminal.
    sched::Lease lease;
    maxpower::CampaignJobOutcome outcome;
    std::vector<ShardState> shards;  ///< mode == kSharded only

    JobPhase phase() const {
      if (lease.phase == sched::LeasePhase::kDone) {
        return failed ? JobPhase::kFailed : JobPhase::kDone;
      }
      return lease.phase == sched::LeasePhase::kLeased ? JobPhase::kLeased
                                                       : JobPhase::kPending;
    }
  };

  /// Sharding is on when a fixed size is set or the adaptive sizer runs.
  bool sharded_mode() const {
    return config_.shard_size > 0 || config_.shard_auto;
  }
  /// A fresh JobState for `job`, partitioned when sharded (ctor and add_job
  /// share it).
  JobState make_state(maxpower::CampaignJob job);
  /// Pushes the live-job count to the mpe_coord_live_jobs gauge (delta).
  void publish_live_jobs();
  /// Folds one finished shard's latency into the adaptive-size EWMA and the
  /// metric series.
  void observe_shard_latency(const ShardState& shard, Clock::time_point now);

  JobState* find(const std::string& job);
  std::string grant(JobState& state, const std::string& worker,
                    Clock::time_point now);
  void record(JobState& state, const maxpower::CampaignJobOutcome& outcome);
  void fail_exhausted(JobState& state, std::size_t attempts, ErrorCode error);

  /// True while no shard of `state` has been leased or completed — the only
  /// window in which the job may flip to whole-job mode for a v1 worker.
  static bool shard_pristine(const JobState& state);
  std::string grant_shard(JobState& state, std::size_t k,
                          const std::string& worker, Clock::time_point now);
  /// Folds the contiguous done-shard prefix through the engine; records the
  /// job terminal (done or failed) when the prefix reaches its stopping
  /// point.
  void try_assemble(JobState& state);

  /// config_.jobs is moved into jobs_ at construction and stays empty.
  CoordinatorConfig config_;
  /// Lease policies over the shared substrate: whole jobs are exclusive
  /// claims, shards allow one speculative straggler re-issue.
  sched::LeasePolicy whole_policy_;
  sched::LeasePolicy shard_policy_;
  std::string report_path_;
  std::vector<JobState> jobs_;
  std::map<std::string, std::size_t> by_name_;
  Rng jitter_rng_;
  bool draining_ = false;
  std::size_t quarantined_ = 0;
  std::size_t leases_granted_ = 0;
  std::size_t shards_done_ = 0;
  /// EWMA of per-attempt shard wall latency in ms (0 = no observation yet).
  double ewma_ms_per_attempt_ = 0.0;
  /// Level last pushed to the mpe_coord_shard_size gauge (delta tracking).
  std::int64_t shard_size_metric_ = 0;
  /// Level last pushed to the mpe_coord_live_jobs gauge (delta tracking).
  std::int64_t live_jobs_metric_ = 0;
  /// Outcomes recorded since the last take_completions().
  std::vector<maxpower::CampaignJobOutcome> completions_;
};

class Listener;  // dist/transport.hpp
class Waker;     // dist/transport.hpp

/// Socket-server options for serve_campaign.
struct CoordinatorServerOptions {
  std::string socket_path;   ///< Unix-domain socket to listen on
  util::RunControl control;  ///< cancellation → graceful drain
  /// Woken after `control` trips (the CLI's signal handler does), so the
  /// drain starts at once. Without one the loop still re-checks `control`
  /// at least once a second. Must outlive the call.
  const Waker* waker = nullptr;
  /// Hard cap on how long a drain waits for in-flight leases before the
  /// coordinator exits anyway (0 = wait a full lease duration).
  std::chrono::milliseconds drain_grace{0};
};

/// Runs the coordinator loop until the campaign finishes or a drain
/// completes. The loop blocks in poll(2) on the listener, the worker
/// channels and the waker, never in a sleep; idle workers' requests are
/// parked (dist/worker_hub.hpp). Returns the invocation summary
/// (CampaignResult::stopped set when the run was cut short by drain).
maxpower::CampaignResult serve_campaign(CoordinatorCore& core,
                                        const CoordinatorServerOptions& options);

/// Same loop over a caller-owned listener (Unix-domain or TCP), so one
/// coordinator serves a multi-host fleet. `options.socket_path` is ignored.
maxpower::CampaignResult serve_campaign(CoordinatorCore& core,
                                        Listener& listener,
                                        const CoordinatorServerOptions& options);

}  // namespace mpe::dist
