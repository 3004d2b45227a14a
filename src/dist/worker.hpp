// Campaign worker: dials the coordinator, computes leased shards — wave-index
// ranges [lo, hi) of a job — through maxpower::run_campaign_shard, the same
// per-index path a single-process campaign runs, over one circuit cache
// for the worker's lifetime, and reports each shard's samples until acked.
//
// Crash posture (docs/ROBUSTNESS.md, "Distributed campaigns"):
//   * kill -9 at any point loses at most checkpoint_every_k hyper-samples
//     of the in-flight shard: the shard checkpoints through the same
//     CRC-trailed atomic path as a local run, and the next lease holder
//     resumes the checkpoint bit-identically.
//   * A vanished coordinator does not kill the worker: the shard keeps
//     computing, heartbeats quietly fail, and the worker redials under a
//     backoff policy — when the (restarted) coordinator answers, the
//     heartbeat re-adopts the shard lease and the result lands as if
//     nothing happened.
//   * Results are re-sent across reconnects until the coordinator acks
//     (at-least-once delivery; the coordinator dedupes), so a result can be
//     delayed but never lost while the worker lives — and if the worker
//     dies first, the checkpoint is the result, one resume away.
//   * A coordinator that refuses the hello (a protocol version mismatch)
//     ends the run at once: redialing cannot change its answer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "util/deadline.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"

namespace mpe::dist {

struct WorkerConfig {
  std::string socket_path;  ///< coordinator's Unix-domain socket
  /// TCP alternative to socket_path (the multi-host seam): when tcp_port is
  /// nonzero the worker dials tcp_host:tcp_port instead of the Unix socket.
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;
  std::string worker_id;    ///< unique within the fleet; stamped on results
  std::string state_dir;    ///< shard checkpoint directory (created if absent)
  std::size_t checkpoint_every_k = 1;
  /// Lease renewal cadence; must be well under the coordinator's lease
  /// duration or healthy workers will look dead.
  std::chrono::milliseconds heartbeat{1000};
  /// Dial/redial backoff. max_attempts bounds how long a worker survives a
  /// coordinator that never comes back (consecutive failures reset on any
  /// successful exchange).
  util::RetryPolicy connect_retry{
      .max_attempts = 40,
      .initial_backoff = std::chrono::milliseconds(50),
      .multiplier = 2.0,
      .max_backoff = std::chrono::milliseconds(2000),
      .jitter = 0.1,
  };
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  util::RunControl control;  ///< SIGTERM drain: stop the shard, report, exit
};

/// What one worker process did before exiting.
struct WorkerSummary {
  std::size_t leases = 0;   ///< shard leases accepted
  std::size_t shards = 0;   ///< shard leases completed
  std::size_t failed = 0;
  std::size_t stopped = 0;  ///< shards cut short (drain/revoke)
  bool drained = false;     ///< coordinator said the campaign is over
  /// kOk on a clean exit; kIo when the coordinator never became reachable;
  /// kCancelled when the worker's own RunControl brake ended the run;
  /// kBadData when the coordinator answered with a protocol error (a
  /// refused hello among them).
  ErrorCode exit_error = ErrorCode::kOk;
  std::string error_detail;  ///< the coordinator's detail under kBadData
};

/// Runs the worker loop until the coordinator drains or refuses it, its
/// RunControl fires, or the coordinator stays unreachable past
/// connect_retry. Throws mpe::Error only for unusable configuration.
WorkerSummary run_worker(const WorkerConfig& config);

}  // namespace mpe::dist
