// Fleet job execution: `mpe_cli serve --fleet`. Submitted server jobs are
// handed to an embedded, persistent CoordinatorCore that carves each one
// into shard leases; campaign-worker processes (dialing the server's
// worker-facing listener, Unix or TCP) compute the wave-index slices and
// the contiguous done prefix is folded back through Engine::replay — so the
// client's result line is byte-identical to local execution of the same
// job, while the actual computation runs on however many workers (and
// hosts) joined the fleet.
//
// Idle workers' requests are parked, not answered `wait` (dist/worker_hub):
// a submitted job's first shard lease goes out in the same loop iteration
// that add_job()s it.
//
// One scheduling substrate, twice: ServerCore (admission/fairness over
// sched::AdmissionQueue) decides which job runs next; the embedded
// CoordinatorCore (leases over sched::Lease) decides which worker computes
// which shard of it. Worker death, stragglers, bounded reassignment, and
// the exactly-once ledger all behave exactly as in a distributed campaign
// — the fleet ledger lives under <state_dir>/fleet/.
//
// Submit ids are salted into fleet job names ("f<salt>-<ticket>-<id>",
// truncated to the campaign name limit): unique per serve instance, so a
// restarted server sharing the state directory never collides with its
// predecessor's ledger records. Workers resolve shard checkpoints under
// their OWN state directories (cross-host fleets share nothing but the
// protocol); a fresh worker simply recomputes — determinism makes the
// result byte-identical either way.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/transport.hpp"
#include "dist/worker_hub.hpp"
#include "maxpower/circuit_cache.hpp"
#include "server/executor.hpp"
#include "server/server.hpp"  // FleetOptions

namespace mpe::server {

class FleetExecutor final : public JobExecutor {
 public:
  /// `cache` and the listeners must outlive the executor (the Server owns
  /// both; listeners may be null individually, not both). `state_dir` must
  /// be non-empty — the fleet ledger lives under it.
  FleetExecutor(maxpower::CircuitCache& cache, const std::string& state_dir,
                const FleetOptions& options, dist::Listener* unix_listener,
                dist::Listener* tcp_listener);
  /// Answers parked requests `drain`, then lingers briefly answering drain
  /// so connected workers exit cleanly instead of burning their redial
  /// budget against a closed socket.
  ~FleetExecutor() override;

  void start(ServerCore::Started started) override;
  bool pump(Clock::time_point now, std::vector<ExecEvent>& events,
            std::vector<ExecCompletion>& completions) override;
  bool idle() const override { return inflight_.empty(); }
  void watch(dist::PollSet& set) const override { hub_.watch(set); }
  Clock::time_point next_deadline(Clock::time_point) const override {
    return hub_.next_deadline();
  }
  void drain() override { draining_ = true; }
  void stop_all() override;

  /// Test/observability hooks.
  std::size_t workers_connected() const { return hub_.connections(); }
  const dist::CoordinatorCore& core() const { return core_; }

 private:
  struct Inflight {
    std::uint64_t ticket = 0;
    util::CancellationToken cancel;
    maxpower::CampaignJob job;  ///< spec under the salted fleet name
    std::uint64_t next_seq = 0;       ///< event seq for this job
    std::set<std::uint64_t> shards_seen;  ///< shard-done events emitted
    bool abandoned = false;
  };

  std::string salted_name(std::uint64_t ticket, const std::string& id) const;
  /// A fresh shard landed: surface it to the submitter as a trace event
  /// (the fleet analogue of the local engine's event stream).
  void shard_landed(const dist::Message& msg);

  maxpower::CircuitCache& cache_;
  dist::CoordinatorCore core_;
  dist::WorkerHub hub_;
  std::map<std::string, Inflight> inflight_;  ///< salted name -> job
  /// shard_done events not yet handed out by pump().
  std::vector<ExecEvent> landed_;
  std::string salt_;
  bool draining_ = false;
};

}  // namespace mpe::server
