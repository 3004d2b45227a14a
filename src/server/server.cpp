#include "server/server.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "dist/transport.hpp"
#include "server/executor.hpp"
#include "server/fleet_executor.hpp"
#include "server/local_executor.hpp"
#include "util/metrics.hpp"

namespace mpe::server {

namespace {

using Clock = ServerCore::Clock;

/// Without a waker, a tripped control is still seen this often.
constexpr std::chrono::milliseconds kControlCheck{1000};

struct ServerMetrics {
  util::Counter connections = util::MetricRegistry::global().counter(
      "mpe_server_connections_total");
  util::Counter accepted = util::MetricRegistry::global().counter(
      "mpe_server_jobs_accepted_total");
  util::Counter rejected = util::MetricRegistry::global().counter(
      "mpe_server_jobs_rejected_total");
  util::Counter done =
      util::MetricRegistry::global().counter("mpe_server_jobs_done_total");
  util::Counter failed =
      util::MetricRegistry::global().counter("mpe_server_jobs_failed_total");
  util::Counter stopped = util::MetricRegistry::global().counter(
      "mpe_server_jobs_stopped_total");
};

ServerMetrics& sm() {
  static ServerMetrics metrics;
  return metrics;
}

/// Publishes the delta between two core-stat snapshots to the registry
/// (the counters are cumulative; the core already holds the totals).
void publish_delta(const ServerStats& prev, const ServerStats& cur) {
  ServerMetrics& m = sm();
  m.accepted.inc(cur.accepted - prev.accepted);
  m.rejected.inc(cur.rejected - prev.rejected);
  m.done.inc(cur.done - prev.done);
  m.failed.inc(cur.failed - prev.failed);
  m.stopped.inc(cur.stopped - prev.stopped);
}

}  // namespace

struct Server::Impl {
  std::unique_ptr<dist::UnixListener> unix_listener;
  std::unique_ptr<dist::TcpListener> tcp_listener;
  /// Worker-facing listeners (fleet mode): campaign workers dial these.
  std::unique_ptr<dist::UnixListener> worker_unix;
  std::unique_ptr<dist::TcpListener> worker_tcp;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      impl_(new Impl) {
  try {
    if (options_.unix_socket.empty() && !options_.tcp) {
      throw Error(ErrorCode::kUsage,
                  "server needs a unix socket path or a tcp port");
    }
    if (options_.fleet.enabled) {
      if (options_.state_dir.empty()) {
        throw Error(ErrorCode::kUsage,
                    "fleet mode needs --state-dir (the fleet ledger lives "
                    "under it)");
      }
      if (options_.fleet.worker_socket.empty() &&
          !options_.fleet.worker_tcp) {
        throw Error(ErrorCode::kUsage,
                    "fleet mode needs a worker socket path or tcp port");
      }
    }
    if (!options_.unix_socket.empty()) {
      impl_->unix_listener =
          std::make_unique<dist::UnixListener>(options_.unix_socket);
    }
    if (options_.tcp) {
      impl_->tcp_listener = std::make_unique<dist::TcpListener>(
          options_.tcp_port, options_.tcp_host);
    }
    if (options_.fleet.enabled) {
      if (!options_.fleet.worker_socket.empty()) {
        impl_->worker_unix =
            std::make_unique<dist::UnixListener>(options_.fleet.worker_socket);
      }
      if (options_.fleet.worker_tcp) {
        impl_->worker_tcp = std::make_unique<dist::TcpListener>(
            options_.fleet.worker_tcp_port, options_.fleet.worker_tcp_host);
      }
    }
  } catch (...) {
    delete impl_;
    throw;
  }
}

Server::~Server() { delete impl_; }

std::uint16_t Server::tcp_port() const {
  return impl_->tcp_listener != nullptr ? impl_->tcp_listener->port() : 0;
}

std::uint16_t Server::worker_tcp_port() const {
  return impl_->worker_tcp != nullptr ? impl_->worker_tcp->port() : 0;
}

ServerReport Server::serve() {
  ServerConfig scheduler = options_.scheduler;
  scheduler.cache = &cache_;
  scheduler.metrics = &util::MetricRegistry::global();
  ServerCore core(scheduler);

  struct Conn {
    std::unique_ptr<dist::LineChannel> channel;
    bool dead = false;
  };
  /// Event/result routing for a started job (the executor keys by ticket).
  struct Route {
    std::size_t conn = 0;
    std::string id;
  };

  std::map<std::size_t, Conn> conns;
  std::map<std::uint64_t, Route> routes;
  std::size_t next_conn = 1;
  ServerReport report;
  ServerStats published;  // last stats snapshot pushed to the registry

  // Wakes the blocked loop when a local job's result is ready. Declared
  // before the executor, whose pool threads write it, so it outlives them.
  dist::Waker waker;

  // The execution seam: jobs run in-process (thread pool) or on the shard
  // fleet, behind the same interface. ServerCore cannot tell the difference.
  std::unique_ptr<JobExecutor> executor;
  {
    FleetOptions fleet = options_.fleet;
    if (fleet.enabled) {
      executor = std::make_unique<FleetExecutor>(
          cache_, options_.state_dir, fleet, impl_->worker_unix.get(),
          impl_->worker_tcp.get());
    } else {
      executor = std::make_unique<LocalExecutor>(
          cache_, options_.state_dir, options_.trace_capacity,
          scheduler.max_active, waker);
    }
  }

  const auto ship = [&](const std::vector<Outbound>& lines) {
    for (const Outbound& out : lines) {
      const auto it = conns.find(out.conn);
      if (it == conns.end() || it->second.dead) continue;
      if (!it->second.channel->send_line(out.line)) it->second.dead = true;
    }
  };
  const auto adopt = [&](std::unique_ptr<dist::LineChannel> channel,
                         Clock::time_point now) {
    if (channel == nullptr) return false;
    channel->set_recv_limit(options_.recv_limit);
    const std::size_t id = next_conn++;
    conns.emplace(id, Conn{std::move(channel), false});
    core.connect(id, now);
    ++report.connections;
    sm().connections.inc();
    return true;
  };

  bool drain_started = false;
  Clock::time_point drain_deadline{};
  const std::chrono::milliseconds no_wait{0};
  std::vector<ExecEvent> events;
  std::vector<ExecCompletion> completions;

  const auto deliver = [&](Clock::time_point now) {
    for (const ExecEvent& ev : events) {
      const auto it = routes.find(ev.ticket);
      if (it == routes.end()) continue;
      ship({{it->second.conn,
             encode_event(it->second.id, ev.seq, ev.name, ev.fields)}});
    }
    for (ExecCompletion& done : completions) {
      ship(core.complete(done.ticket, done.outcome, done.report, now));
      routes.erase(done.ticket);
    }
    events.clear();
    completions.clear();
  };

  while (true) {
    const Clock::time_point now = Clock::now();
    bool activity = false;

    if (!drain_started &&
        options_.control.should_stop() != util::StopCause::kNone) {
      drain_started = true;
      drain_deadline = now + options_.drain_grace;
      ship(core.begin_drain(now));
      executor->drain();
      activity = true;
    }

    ship(core.tick(now));

    if (!drain_started) {
      if (impl_->unix_listener != nullptr) {
        while (adopt(impl_->unix_listener->accept(no_wait), now)) {
          activity = true;
        }
      }
      if (impl_->tcp_listener != nullptr) {
        while (adopt(impl_->tcp_listener->accept(no_wait), now)) {
          activity = true;
        }
      }
    }

    for (auto& [id, conn] : conns) {
      if (conn.dead) continue;
      std::string line;
      while (true) {
        const auto status = conn.channel->recv_line(line, no_wait);
        if (status == dist::LineChannel::RecvStatus::kTimeout) break;
        if (status == dist::LineChannel::RecvStatus::kClosed) {
          conn.dead = true;
          break;
        }
        if (status == dist::LineChannel::RecvStatus::kOverflow) {
          // Frame-less flood past the recv limit: answer with a protocol
          // error so the peer can tell misuse from a network fault, then
          // hang up.
          conn.channel->send_line(encode_error("oversized frame"));
          conn.dead = true;
          break;
        }
        activity = true;
        std::vector<Outbound> replies;
        try {
          replies = core.handle(id, decode_server_message(line), now);
        } catch (const Error& e) {
          // Malformed or hostile input: a structured error reply, never a
          // crash and never a dropped connection.
          replies = {{id, encode_error(e.what())}};
        }
        ship(replies);
      }
    }

    // Start granted jobs.
    while (auto started = core.next_job(now)) {
      activity = true;
      routes.emplace(started->ticket,
                     Route{started->conn, started->job.name});
      executor->start(std::move(*started));
    }

    // Advance execution; stream fresh trace events, report finished jobs.
    if (executor->pump(now, events, completions)) activity = true;
    deliver(now);

    // Reap dead connections after replies had their chance to ship.
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->second.dead) {
        ++it;
        continue;
      }
      core.disconnect(it->first, now);
      it = conns.erase(it);
      activity = true;
    }

    {
      const ServerStats cur = core.stats();
      publish_delta(published, cur);
      published = cur;
    }

    if (drain_started) {
      if (executor->idle() && core.idle()) {
        report.drained = true;
        break;
      }
      if (now >= drain_deadline) {
        // Grace expired: stop stragglers cooperatively and report whatever
        // they produced — still exactly one result per accepted job.
        executor->stop_all();
        executor->pump(Clock::now(), events, completions);
        deliver(Clock::now());
        break;
      }
    }

    if (activity) continue;  // something moved: look again before blocking

    // Nothing to do: block until a socket, the waker, or the nearest
    // deadline needs the loop. Client lines were all drained above (poll
    // cannot see bytes a channel already buffered); the fleet executor
    // reports its own buffered lines through next_deadline().
    dist::PollSet set;
    set.add(waker.fd());
    if (options_.waker != nullptr) set.add(options_.waker->fd());
    if (!drain_started) {
      if (impl_->unix_listener != nullptr) {
        set.add(impl_->unix_listener->fd());
      }
      if (impl_->tcp_listener != nullptr) set.add(impl_->tcp_listener->fd());
    }
    for (const auto& [id, conn] : conns) set.add(conn.channel->fd());
    executor->watch(set);
    Clock::time_point wake_at =
        std::min({core.next_deadline(), executor->next_deadline(now),
                  now + kControlCheck});
    if (drain_started) wake_at = std::min(wake_at, drain_deadline);
    if (!options_.control.deadline.unlimited()) {
      wake_at = std::min(wake_at, now + options_.control.deadline.remaining());
    }
    set.wait(wake_at);
    waker.clear();
    if (options_.waker != nullptr) options_.waker->clear();
  }

  report.stats = core.stats();
  publish_delta(published, report.stats);
  executor.reset();  // the fleet lingers on the worker listeners first
  // A late dialer is refused rather than left waiting on a dead loop.
  if (impl_->unix_listener != nullptr) impl_->unix_listener->close();
  if (impl_->tcp_listener != nullptr) impl_->tcp_listener->close();
  if (impl_->worker_unix != nullptr) impl_->worker_unix->close();
  if (impl_->worker_tcp != nullptr) impl_->worker_tcp->close();
  return report;
}

}  // namespace mpe::server
