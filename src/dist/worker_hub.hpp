// The socket side of a coordinator: accepts worker connections on one or
// more listeners, answers every worker message through a CoordinatorCore,
// and parks the requests of idle workers instead of answering `wait`.
//
// Parking. When the core answers a `request` with `wait`, no reply goes
// out: the request is held and re-asked every time service() runs — after
// a job was added, a shard landed, a job was abandoned, the drain began,
// or any other message moved the core. The first reply that is not `wait`
// is sent. If the `ms` the core put in its `wait` (clamped to kMaxPark)
// passes first, the `wait` the core gives at that moment is sent instead,
// and the worker asks again at once. An idle worker therefore hears of new
// work within one loop iteration, and an idle fleet costs one round trip
// per worker per park period. The core cannot tell the difference: it
// answers the same request at a later `now`, as if the worker had asked
// again then — parking lives in the socket layer only, so every core
// decision and decision trace is unchanged.
//
// Both coordinators run on it: serve_campaign (campaign-coordinator) and
// the estimation server's FleetExecutor (serve --fleet). Neither sleeps:
// their loops put watch() into one poll(2) and wake by next_deadline().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "util/metrics.hpp"

namespace mpe::dist {

class WorkerHub {
 public:
  using Clock = CoordinatorCore::Clock;

  /// Longest a request stays parked; well under the worker's 5 s reply
  /// timeout, so a parked worker never mistakes silence for a dead peer.
  static constexpr std::chrono::milliseconds kMaxPark{1000};

  /// Sees each `shard_result` that landed a fresh shard, after the core
  /// handled it (the fleet executor turns these into `shard_done` events).
  using ShardObserver = std::function<void(const Message&)>;

  /// `core` and the non-null `listeners` must outlive the hub. `metrics`
  /// (optional) receives the mpe_coord_parked_requests gauge.
  WorkerHub(CoordinatorCore& core, std::vector<Listener*> listeners,
            util::MetricRegistry* metrics = nullptr,
            ShardObserver on_shard = {});
  ~WorkerHub();
  WorkerHub(const WorkerHub&) = delete;
  WorkerHub& operator=(const WorkerHub&) = delete;

  /// Adds every listener and worker channel to `set`.
  void watch(PollSet& set) const;

  /// Accepts pending connections, answers every complete line, then
  /// re-asks the core for each parked request, longest-parked first.
  /// Never blocks. Returns true when anything was accepted, read or sent.
  bool service(Clock::time_point now);

  /// When service() next has work without new readiness: the earliest
  /// parked deadline or lease expiry; the past when a channel already
  /// buffers a complete line (poll cannot see those); max() when none.
  Clock::time_point next_deadline() const;

  /// The campaign is over: answers parked requests `drain`, then keeps
  /// answering (hello: the core's ack, heartbeat: revoke, anything else:
  /// drain) until `grace` passed or, unless `hold_full_grace`, every worker
  /// hung up. Workers then exit on a drain reply instead of redialing a
  /// closed socket. Holding the full grace also reaches a worker that is
  /// still between dials — one started with a campaign that finished
  /// before it first connected.
  void linger(std::chrono::milliseconds grace, bool hold_full_grace = false);

  std::size_t connections() const { return conns_.size(); }
  std::size_t parked() const { return parked_; }

 private:
  struct Conn {
    std::unique_ptr<LineChannel> channel;
    std::optional<Message> request;  ///< the parked request, if any
    Clock::time_point deadline{};    ///< answer it by then
    std::uint64_t parked_at = 0;     ///< park order (FIFO re-asks)
  };

  void accept_all();
  /// The next complete line `conn` delivered; false when none is buffered.
  /// A closed or flooding peer is hung up on (a flood first hears `error`).
  bool next_line(Conn& conn, std::string& line);
  /// Forgets hung-up connections (and their parked requests).
  void drop_closed();
  /// Handles one line from `conn`: answers it, or parks it.
  void handle(Conn& conn, const std::string& line, Clock::time_point now);
  void send(Conn& conn, const std::string& reply);
  void park(Conn& conn, Message request, std::uint64_t wait_ms,
            Clock::time_point now);
  void unpark(Conn& conn);
  void publish_parked();

  CoordinatorCore& core_;
  std::vector<Listener*> listeners_;
  util::MetricRegistry* metrics_;
  ShardObserver on_shard_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t parked_ = 0;
  std::uint64_t park_seq_ = 0;
  /// Level last pushed to the mpe_coord_parked_requests gauge.
  std::int64_t parked_metric_ = 0;
};

}  // namespace mpe::dist
