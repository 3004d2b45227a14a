// The execution seam of the estimation server: ServerCore decides WHICH job
// runs next; a JobExecutor decides WHERE it runs. Two implementations:
//
//   * LocalExecutor (local_executor.hpp) — the classic in-process shape: a
//     thread pool sized to the executor slots, one engine run per job,
//     trace events streamed from the per-job tracer ring.
//   * FleetExecutor (fleet_executor.hpp) — `mpe_cli serve --fleet`: jobs
//     are carved into shard leases by an embedded persistent
//     CoordinatorCore and computed by campaign-worker processes (possibly
//     on other hosts); the contiguous done prefix is folded back through
//     Engine::replay, so the result line is byte-identical to local
//     execution of the same job.
//
// The contract mirrors the pure-core style of the rest of the stack: the
// serve loop calls start() for every granted job, then pump()s once per
// iteration with the wall clock; the executor hands back trace events and
// terminal completions keyed by the ServerCore ticket. Every started job
// yields exactly one completion — including after stop_all().
//
// The serve loop blocks in poll(2) between iterations, so an executor says
// what should wake it: fds to watch (fleet: worker sockets), a deadline
// (fleet: parked requests and lease expiry; local: the next trace flush),
// and the server's Waker, which a local job's runner thread writes when it
// finishes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "maxpower/campaign.hpp"
#include "server/server_core.hpp"

namespace mpe::dist {
class PollSet;
}

namespace mpe::server {

/// One trace event of a running job, addressed by its ticket. The serve
/// loop turns it into an `event` protocol line for the submitting client.
struct ExecEvent {
  std::uint64_t ticket = 0;
  std::uint64_t seq = 0;  ///< per-job, monotonically increasing
  std::string name;
  std::string fields;  ///< raw JSON body ("k":v,... ) or empty
};

/// Terminal outcome of one started job, addressed by its ticket.
struct ExecCompletion {
  std::uint64_t ticket = 0;
  maxpower::CampaignJobOutcome outcome;
  std::string report;  ///< JSONL run report; empty when none was produced
};

class JobExecutor {
 public:
  using Clock = ServerCore::Clock;

  virtual ~JobExecutor() = default;

  /// Accepts one job granted by ServerCore::next_job. The executor owns it
  /// until it emits the matching completion from a pump().
  virtual void start(ServerCore::Started started) = 0;

  /// Advances execution without blocking: appends fresh trace events and
  /// newly terminal jobs. Returns true when anything happened (feeds the
  /// serve loop's activity/backoff decision).
  virtual bool pump(Clock::time_point now, std::vector<ExecEvent>& events,
                    std::vector<ExecCompletion>& completions) = 0;

  /// True when no started job is still in flight.
  virtual bool idle() const = 0;

  /// Adds the fds whose readiness calls for a pump().
  virtual void watch(dist::PollSet& /*set*/) const {}

  /// When pump() next has timed work to do (max() when none).
  virtual Clock::time_point next_deadline(Clock::time_point /*now*/) const {
    return Clock::time_point::max();
  }

  /// Drain began: in-flight jobs keep running to completion, but the
  /// executor may stop courting new capacity (fleet: workers asking for
  /// work once everything settles are told to go home).
  virtual void drain() {}

  /// Drain grace expired: stop everything in flight cooperatively. Every
  /// still-started job must yield its completion from the next pump() —
  /// exactly one result per accepted job, even on a hard shutdown.
  virtual void stop_all() = 0;
};

}  // namespace mpe::server
