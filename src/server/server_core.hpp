// The deterministic heart of the estimation server: admission control,
// bounded queues, fair scheduling, deadlines, cancellation, and drain — as
// a pure state machine over injected time (the CoordinatorCore pattern).
//
// ServerCore never reads the clock, owns no sockets, and starts no
// threads. The serving loop (server.hpp) feeds it decoded messages with an
// explicit `now`, asks it which job to start next, and reports completions
// back; every transition returns the encoded reply lines to ship, tagged
// with the destination connection. That split is what makes the
// admission/fairness/deadline/drain logic unit-testable with a synthetic
// clock — no sockets, no sleeps, no flakes (tests/test_server_core.cpp).
//
// Scheduling model (the queue/fairness mechanics live in the shared
// substrate, sched/admission.hpp; ServerCore is the protocol policy on
// top):
//   * Per-connection FIFO queues, bounded by max_queued_per_client and
//     max_queued_total. A full queue REJECTS with kResourceExhausted
//     (backpressure) — memory never grows with offered load.
//   * Fair round-robin across connections: each next_job() grant moves the
//     cursor past the granted client, so a client submitting 100 jobs
//     cannot starve one submitting 2.
//   * Per-job deadlines (client-requested, capped by max_deadline, with
//     default_deadline as the fallback) expire queued jobs immediately and
//     trip the cancellation token of running ones.
//   * Exactly-once replies: every accepted submit produces exactly one
//     result line — on completion, cancellation, deadline expiry, or drain
//     — unless its connection is gone (then the result is dropped with the
//     peer, like any stream).
//   * Drain (SIGTERM): queued jobs are answered stopped/cancelled at once,
//     running jobs finish and report, new submits are rejected.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "maxpower/campaign.hpp"
#include "sched/admission.hpp"
#include "maxpower/circuit_cache.hpp"
#include "server/server_protocol.hpp"
#include "util/deadline.hpp"
#include "util/metrics.hpp"

namespace mpe::server {

struct ServerConfig {
  /// Jobs running concurrently (executor slots). At least 1.
  std::size_t max_active = 2;
  /// Queued (not yet running) jobs per connection before backpressure.
  std::size_t max_queued_per_client = 8;
  /// Queued jobs across all connections before backpressure.
  std::size_t max_queued_total = 64;
  /// Applied when a submit carries no deadline_ms (0 = unlimited).
  std::chrono::milliseconds default_deadline{0};
  /// Cap on client-requested deadlines (0 = uncapped).
  std::chrono::milliseconds max_deadline{0};
  /// Pipelined-estimator threads per job (result-invariant).
  unsigned threads_per_job = 1;
  /// Stats/scrape sources; both optional (null = zeros / empty scrape).
  const maxpower::CircuitCache* cache = nullptr;
  const util::MetricRegistry* metrics = nullptr;
};

/// Where one accepted job stands.
enum class ServerJobPhase : std::uint8_t { kQueued, kRunning };

/// One encoded reply line addressed to one connection.
struct Outbound {
  std::size_t conn = 0;
  std::string line;
};

class ServerCore {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ServerCore(ServerConfig config);

  /// Registers a new connection (before any message from it is handled).
  void connect(std::size_t conn, Clock::time_point now);

  /// Removes a connection: queued jobs are dropped, running jobs get their
  /// cancellation tripped and their eventual result suppressed.
  void disconnect(std::size_t conn, Clock::time_point now);

  /// Handles one decoded message from `conn` at `now`; returns the reply
  /// lines to send. Unknown/out-of-place messages produce an `error` line,
  /// never an exception.
  std::vector<Outbound> handle(std::size_t conn, const ServerMessage& msg,
                               Clock::time_point now);

  /// A job handed to the executor.
  struct Started {
    std::uint64_t ticket = 0;  ///< completion key
    std::size_t conn = 0;
    maxpower::CampaignJob job;      ///< spec with name = request id
    util::CancellationToken cancel; ///< tripped by cancel/deadline/disconnect
    Clock::time_point deadline = Clock::time_point::max();
    unsigned threads = 1;
  };

  /// Picks the next job to start (fair round-robin), or nullopt when the
  /// active limit is reached or nothing is queued. The caller must
  /// eventually call complete() with the returned ticket.
  std::optional<Started> next_job(Clock::time_point now);

  /// Reports the terminal outcome of a started job; returns the result
  /// line for the submitting connection (empty when it disconnected).
  std::vector<Outbound> complete(std::uint64_t ticket,
                                 const maxpower::CampaignJobOutcome& outcome,
                                 const std::string& report,
                                 Clock::time_point now);

  /// Sweeps deadlines: queued jobs past their deadline are answered
  /// stopped/deadline immediately; running ones get their token tripped
  /// (their result arrives via complete()). Call once per loop iteration.
  std::vector<Outbound> tick(Clock::time_point now);

  /// SIGTERM drain: rejects future submits, answers every queued job
  /// stopped/cancelled now, notifies every connection with a `drain` line.
  /// Running jobs keep going (serve loop waits for idle() or its grace).
  std::vector<Outbound> begin_drain(Clock::time_point now);
  bool draining() const { return draining_; }

  /// True when no job is queued or running.
  bool idle() const { return running_.empty() && queue_.queued_total() == 0; }

  /// The earliest deadline tick() has yet to act on — a queued job's, or a
  /// running job's whose token it has not tripped — or max() when none.
  /// The serving loop blocks no longer than this.
  Clock::time_point next_deadline() const;

  /// Counters for the server-stats reply (cache/capacity from config).
  ServerStats stats() const;

  // -- test / observability hooks -------------------------------------------
  std::optional<ServerJobPhase> phase(std::size_t conn,
                                      const std::string& id) const;
  std::size_t queued_count() const { return queue_.queued_total(); }
  std::size_t running_count() const { return running_.size(); }

 private:
  struct Job {
    std::uint64_t ticket = 0;
    std::size_t conn = 0;
    std::string id;
    maxpower::CampaignJob spec;
    util::CancellationToken cancel;
    Clock::time_point deadline = Clock::time_point::max();
    bool cancelled = false;     ///< client asked; maps outcome to kCancelled
    bool deadline_hit = false;  ///< expired while running; maps to kDeadline
    bool orphaned = false;      ///< connection gone; suppress the result
  };

  struct Client {
    bool hello = false;
    std::string name;
  };

  bool has_active_id(std::size_t conn, const std::string& id) const;
  std::vector<Outbound> handle_submit(std::size_t conn, Client& client,
                                      const ServerMessage& msg,
                                      Clock::time_point now);
  /// The exactly-once terminal line for a job that never ran to completion
  /// (deadline expiry in queue, cancel in queue, drain).
  static Outbound stopped_result(const Job& job, ErrorCode code);

  ServerConfig config_;
  std::map<std::size_t, Client> clients_;
  /// Queued jobs: bounded per-client FIFOs + the fair round-robin ring,
  /// from the shared scheduling substrate.
  sched::AdmissionQueue<Job> queue_;
  std::vector<Job> running_;
  std::uint64_t next_ticket_ = 1;
  bool draining_ = false;
  ServerStats totals_;  ///< queued/running/clients/cache filled in stats()
};

/// Renders a MetricsSnapshot in the text scrape format: one
/// `name{labels} value` line per series (histograms add _count/_sum).
/// Deterministic ordering (registration order within the snapshot).
std::string render_metrics_text(const util::MetricsSnapshot& snapshot);

}  // namespace mpe::server
