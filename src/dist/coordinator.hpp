// Campaign coordinator: partitions every job of a campaign manifest into
// shard leases and serves them to workers over the dist protocol,
// surviving the death of any participant — including itself.
//
// Fault model and the exactly-once argument (docs/ROBUSTNESS.md,
// "Distributed campaigns"):
//   * The one unit of leased work is a shard: a contiguous wave-index range
//     [lo, hi) of one job (maxpower/shard). A job whose attempt budget fits
//     in one shard_size is a one-shard partition — a whole job.
//   * A lease is a time-bounded claim on one shard. Workers renew it by
//     heartbeating; a worker that dies (kill -9, network gone) simply stops
//     renewing, the lease expires, and the shard returns to the pending
//     pool after a jittered backoff (util/retry's policy — same taxonomy as
//     job-level retries). Reassignment is bounded: a shard that burns
//     max_assignments leases fails its job, so a worker-killing job cannot
//     grind the fleet forever. A straggling shard gets one speculative
//     second holder; the first valid result wins.
//   * All durable state is the append-only sealed ledger (maxpower/ledger)
//     plus the per-shard checkpoints workers write. Done-shard payloads are
//     appended to the ledger inline, so a restarted coordinator rebuilds
//     in-flight jobs from the ledger alone, treats recorded-done jobs as
//     skipped, and *adopts* shard claims from workers that heartbeat for a
//     shard it does not think is leased — in-flight work survives a
//     coordinator kill -9 without re-execution.
//   * "done" shard results are accepted from stale lease holders too (the
//     engine is deterministic, so a late result is byte-identical to the
//     one the current holder would produce), deduplicated against shard
//     state, and appended to the ledger exactly once. Workers re-send
//     results until acked; at-least-once delivery + state dedup =
//     exactly-once ledger. The contiguous done prefix is folded through
//     Engine::replay into a final record byte-identical to a
//     single-process run.
//
// The lease mechanics themselves — grant/heartbeat/expiry/backoff-gated
// reassignment/adoption/straggler eligibility — live in the shared
// scheduling substrate (sched/lease.hpp); a shard claim is a lease with
// max_holders 2. CoordinatorCore is the campaign policy on top: what to
// encode, when a job is terminal, what the ledger records. It stays a pure
// state machine over injected time — every transition takes an explicit
// `now` — so lease expiry, backoff gating, and drain are unit-testable
// without sockets or sleeps. serve_campaign() wraps it in the poll loop
// that owns real connections and the wall clock.
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
  /// A shard's total lease grants (first assignment included) before the
  /// coordinator gives up and records its job failed.
  std::size_t max_assignments = 5;
  /// Backoff between reassignments of one shard (expiry storms should not
  /// thrash); initial_backoff/multiplier/max_backoff/jitter are used.
  util::RetryPolicy reassign;
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Attempts per shard: each job is split into contiguous wave-index
  /// ranges of this many attempts (maxpower/shard), the last one possibly
  /// short. A size at or above a job's attempt budget leases it as one
  /// shard. Must be >= 1.
  std::size_t shard_size = maxpower::kDefaultShardSize;
  /// A leased shard older than this with idle capacity elsewhere is a
  /// straggler: it is speculatively re-issued to a second worker and the
  /// first valid result wins (0 = twice the lease duration).
  std::chrono::milliseconds straggler_after{0};
  /// Estimation-as-a-service mode: the job set is dynamic (add_job), so a
  /// worker request finding nothing pending is answered `wait`, never
  /// `drain` (begin_drain() still wins once called). Jobs are retired once
  /// take_completions() hands them out, so state scales with live jobs.
  bool persistent = false;
  /// Optional metric sink: shard latency observations and the live-job
  /// count (mpe_coord_* series). Null = no metrics.
  util::MetricRegistry* metrics = nullptr;
};

/// Where one job stands inside the coordinator.
/// A job is never leased itself — its shards are — so it is pending until
/// it turns terminal.
enum class JobPhase : std::uint8_t { kPending, kDone, kFailed };

/// The deterministic heart of the coordinator. Not thread-safe; one owner.
class CoordinatorCore {
 public:
  using Clock = sched::Clock;

  /// Reads the ledger (quarantining corrupt records), marks recorded-done
  /// jobs, and creates the state directory. Throws on unusable config
  /// (kPrecondition for a missing state_dir or a zero shard_size).
  explicit CoordinatorCore(CoordinatorConfig config);

  /// Handles one decoded worker message at time `now`; returns the encoded
  /// reply line. Appends ledger records for terminal transitions.
  std::string handle(const Message& msg, Clock::time_point now);

  /// Dynamically registers one more job (estimation-as-a-service mode;
  /// usually combined with `persistent`). The job is partitioned into
  /// shards and becomes grantable immediately.
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

  /// Shard leases granted since construction (monotonic; includes
  /// re-grants, speculative copies and adoptions).
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
  /// One wave-index range of a job: the shard payload around its
  /// sched::Lease (max_holders 2: primary + one straggler re-issue).
  struct ShardState {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    sched::Lease lease;
    std::vector<maxpower::ShardSample> samples;  ///< filled when done
  };

  struct JobState {
    maxpower::CampaignJob job;
    bool skipped = false;   ///< done per the ledger before this run
    bool terminal = false;  ///< outcome recorded, or skipped
    bool failed = false;    ///< terminal flavor: failed/stopped vs done
    maxpower::CampaignJobOutcome outcome;
    std::vector<ShardState> shards;

    JobPhase phase() const {
      if (!terminal) return JobPhase::kPending;
      return failed ? JobPhase::kFailed : JobPhase::kDone;
    }
  };

  /// A fresh JobState for `job`, partitioned into shards (ctor and add_job
  /// share it).
  JobState make_state(maxpower::CampaignJob job);
  /// Pushes the live-job count to the mpe_coord_live_jobs gauge (delta).
  void publish_live_jobs();
  /// Records one finished shard's latency in the mpe_coord_shard_latency_ms
  /// histogram.
  void observe_shard_latency(const ShardState& shard, Clock::time_point now);

  JobState* find(const std::string& job);
  void record(JobState& state, const maxpower::CampaignJobOutcome& outcome);
  void fail_exhausted(JobState& state, std::size_t attempts, ErrorCode error);

  std::string grant_shard(JobState& state, std::size_t k,
                          const std::string& worker, Clock::time_point now);
  /// Folds the contiguous done-shard prefix through the engine; records the
  /// job terminal (done or failed) when the prefix reaches its stopping
  /// point.
  void try_assemble(JobState& state);

  /// config_.jobs is moved into jobs_ at construction and stays empty.
  CoordinatorConfig config_;
  /// Shard leases over the shared substrate: one speculative straggler
  /// re-issue allowed.
  sched::LeasePolicy shard_policy_;
  std::string report_path_;
  std::vector<JobState> jobs_;
  std::map<std::string, std::size_t> by_name_;
  Rng jitter_rng_;
  bool draining_ = false;
  std::size_t quarantined_ = 0;
  std::size_t leases_granted_ = 0;
  std::size_t shards_done_ = 0;
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
