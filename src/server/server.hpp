// Estimation-as-a-service: a long-lived daemon that keeps parsed circuits
// and compiled gate tapes hot across requests.
//
// A Server binds a Unix-domain socket, a TCP port (ROADMAP item 3's
// multi-host seam), or both, and runs the mpe.server line protocol
// (server_protocol.hpp) over them. Scheduling decisions — admission,
// bounded queues, fairness, deadlines, cancellation, drain — live in the
// pure ServerCore state machine; this file owns only the impure shell:
// sockets, the executor thread pool, wall clocks, and signal-driven drain.
//
// Job execution builds each job's population and engine with the campaign
// runner's own functions (maxpower::build_campaign_runtime,
// campaign_engine_config), so a job submitted to the server returns
// byte-identical numbers to `mpe_cli campaign` for the same (circuit, seed,
// options) — the server adds reuse, not variance. The server owns one
// bounded-LRU maxpower::CircuitCache for its lifetime, so netlists (and,
// for zero-delay jobs, compiled tapes) are built once per circuit, not per
// job.
//
// The loop is readiness-driven: between iterations it blocks in one
// poll(2) over the client listeners and channels, the fleet's worker
// listeners and channels, and a waker (local job completions, the CLI's
// signal handler). The timeout is the nearest real deadline — a job
// deadline, a lease expiry, a parked worker request, the drain grace — so
// an idle daemon sleeps in the kernel and a busy one never waits on a tick.
//
// Lifecycle: serve() blocks until the RunControl in the options trips
// (SIGTERM/SIGINT in the CLI). It then drains like the distributed
// coordinator: queued jobs are answered `stopped` immediately, running
// jobs finish (bounded by drain_grace) and report, then the loop exits.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "maxpower/shard.hpp"
#include "maxpower/circuit_cache.hpp"
#include "server/server_core.hpp"
#include "util/deadline.hpp"

namespace mpe::dist {
class Waker;
}

namespace mpe::server {

/// Fleet execution (`serve --fleet`): submitted jobs are carved into shard
/// leases by an embedded persistent coordinator and computed by
/// campaign-worker processes dialing the worker-facing listener(s); the
/// assembled results are byte-identical to local execution. Knobs mirror
/// the distributed-campaign coordinator's (see dist/coordinator.hpp).
struct FleetOptions {
  bool enabled = false;
  /// Worker-facing listeners: a Unix socket path and/or a TCP port (0 asks
  /// the kernel; read it back via Server::worker_tcp_port()). At least one
  /// is required when enabled.
  std::string worker_socket;
  bool worker_tcp = false;
  std::uint16_t worker_tcp_port = 0;
  std::string worker_tcp_host = "127.0.0.1";
  /// Shard-lease duration; workers heartbeat well within it.
  std::chrono::milliseconds lease{5000};
  /// Lease grants per shard before the job is recorded failed.
  std::size_t max_assignments = 5;
  /// Attempts per shard (>= 1).
  std::size_t shard_size = maxpower::kDefaultShardSize;
  std::chrono::milliseconds straggler_after{0};  ///< 0 = twice the lease
};

struct ServerOptions {
  /// Unix-domain socket path; bound when non-empty.
  std::string unix_socket;
  /// Bind a TCP listener when true; port 0 asks for an ephemeral port
  /// (read it back via Server::tcp_port()).
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  std::string tcp_host = "127.0.0.1";
  /// Checkpoint directory for server-run jobs; empty disables checkpoints
  /// (the server stays stateless on disk).
  std::string state_dir;
  /// Resident entries in the shared circuit cache.
  std::size_t cache_capacity = maxpower::kDefaultCircuitCacheCapacity;
  /// Admission / scheduling configuration. The cache and metrics pointers
  /// are overwritten by the server (it owns the cache).
  ServerConfig scheduler;
  /// Serving brake: request_stop() (or deadline expiry) begins the drain.
  util::RunControl control;
  /// Woken after `control` trips (the CLI's signal handler does), so the
  /// drain starts at once. Without one the loop still re-checks `control`
  /// at least once a second. Must outlive serve().
  const dist::Waker* waker = nullptr;
  /// How long running jobs may finish after drain begins.
  std::chrono::milliseconds drain_grace{30000};
  /// Per-connection receive-buffer cap (frame-less flood protection).
  std::size_t recv_limit = 256 * 1024;
  /// Trace each job and stream its events to the submitter (0 disables;
  /// otherwise the per-job tracer ring capacity).
  std::size_t trace_capacity = 256;
  /// Fleet execution; when enabled, state_dir must be set (the fleet
  /// ledger lives under <state_dir>/fleet).
  FleetOptions fleet;
};

/// What one serve() invocation did (logged by the CLI on exit).
struct ServerReport {
  ServerStats stats;               ///< terminal scheduler + cache counters
  std::uint64_t connections = 0;   ///< connections ever accepted
  bool drained = false;            ///< drain completed before the grace cut
};

class Server {
 public:
  /// Binds the requested listeners (throws Error(kIo/kUsage) on failure)
  /// but does not serve yet — construct, read tcp_port(), then serve().
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the kernel's pick when options asked for 0), or 0
  /// when no TCP listener was requested.
  std::uint16_t tcp_port() const;

  /// The bound worker-facing TCP port (fleet mode), or 0 when none.
  std::uint16_t worker_tcp_port() const;

  /// Runs the serving loop until the control trips and the drain finishes.
  ServerReport serve();

 private:
  struct Impl;
  ServerOptions options_;
  maxpower::CircuitCache cache_;
  Impl* impl_;  ///< listeners + loop state (socket headers stay out of here)
};

}  // namespace mpe::server
