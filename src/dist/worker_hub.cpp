#include "dist/worker_hub.hpp"

#include <algorithm>
#include <utility>

#include "util/status.hpp"

namespace mpe::dist {

namespace {

constexpr std::chrono::milliseconds kNoWait{0};

/// The `ms` of a `wait` reply; nullopt for any other reply.
std::optional<std::uint64_t> wait_ms(const std::string& reply) {
  try {
    const Message msg = decode_message(reply);
    if (msg.kind == MessageKind::kWait) return msg.ms;
  } catch (const Error&) {
  }
  return std::nullopt;
}

}  // namespace

WorkerHub::WorkerHub(CoordinatorCore& core, std::vector<Listener*> listeners,
                     util::MetricRegistry* metrics, ShardObserver on_shard)
    : core_(core),
      listeners_(std::move(listeners)),
      metrics_(metrics),
      on_shard_(std::move(on_shard)) {
  std::erase(listeners_, nullptr);
}

WorkerHub::~WorkerHub() {
  parked_ = 0;
  publish_parked();
}

void WorkerHub::watch(PollSet& set) const {
  for (const Listener* listener : listeners_) set.add(listener->fd());
  for (const auto& conn : conns_) set.add(conn->channel->fd());
}

void WorkerHub::accept_all() {
  for (Listener* listener : listeners_) {
    while (auto channel = listener->accept(kNoWait)) {
      auto conn = std::make_unique<Conn>();
      conn->channel = std::move(channel);
      conns_.push_back(std::move(conn));
    }
  }
}

bool WorkerHub::next_line(Conn& conn, std::string& line) {
  if (!conn.channel->valid()) return false;
  switch (conn.channel->recv_line(line, kNoWait)) {
    case LineChannel::RecvStatus::kLine:
      return true;
    case LineChannel::RecvStatus::kTimeout:
      return false;
    case LineChannel::RecvStatus::kOverflow:
      // A frame past the receive limit is a protocol violation, not a
      // transport fault: say so before hanging up.
      conn.channel->send_line(encode_error("oversized frame"));
      break;
    case LineChannel::RecvStatus::kClosed:
      break;  // worker gone; lease expiry covers its work
  }
  conn.channel->close();
  return false;
}

void WorkerHub::drop_closed() {
  for (auto& conn : conns_) {
    if (!conn->channel->valid()) unpark(*conn);
  }
  std::erase_if(conns_, [](const auto& c) { return !c->channel->valid(); });
}

void WorkerHub::send(Conn& conn, const std::string& reply) {
  if (!conn.channel->send_line(reply)) conn.channel->close();
}

void WorkerHub::park(Conn& conn, Message request, std::uint64_t wait_ms,
                     Clock::time_point now) {
  const auto ms = std::min<std::uint64_t>(
      wait_ms, static_cast<std::uint64_t>(kMaxPark.count()));
  conn.request = std::move(request);
  conn.deadline = now + std::chrono::milliseconds(ms);
  conn.parked_at = park_seq_++;
  ++parked_;
  publish_parked();
}

void WorkerHub::unpark(Conn& conn) {
  if (!conn.request) return;
  conn.request.reset();
  --parked_;
  publish_parked();
}

void WorkerHub::publish_parked() {
  if (metrics_ == nullptr) return;
  const auto level = static_cast<std::int64_t>(parked_);
  metrics_->gauge("mpe_coord_parked_requests").add(level - parked_metric_);
  parked_metric_ = level;
}

void WorkerHub::handle(Conn& conn, const std::string& line,
                       Clock::time_point now) {
  // A fresh line supersedes a parked request: the peer gave up on it.
  unpark(conn);
  std::string reply;
  try {
    Message msg = decode_message(line);
    const std::size_t shards_before = core_.shards_done();
    reply = core_.handle(msg, now);
    if (msg.kind == MessageKind::kRequest) {
      if (const auto ms = wait_ms(reply)) {
        park(conn, std::move(msg), *ms, now);
        return;
      }
    } else if (msg.kind == MessageKind::kShardResult && on_shard_ &&
               core_.shards_done() > shards_before) {
      on_shard_(msg);
    }
  } catch (const Error& e) {
    reply = encode_error(e.what());
  }
  send(conn, reply);
}

bool WorkerHub::service(Clock::time_point now) {
  const std::size_t known = conns_.size();
  accept_all();
  bool activity = conns_.size() != known;

  // Drain every line each peer already delivered; a worker only has one
  // message in flight, but a batch can pile up while we were busy.
  for (auto& conn : conns_) {
    for (std::string line; next_line(*conn, line);) {
      handle(*conn, line, now);
      activity = true;
    }
  }

  // Something may have changed since each request parked: ask again,
  // longest-parked first.
  std::vector<Conn*> parked;
  for (auto& conn : conns_) {
    if (conn->request && conn->channel->valid()) parked.push_back(conn.get());
  }
  std::sort(parked.begin(), parked.end(), [](const Conn* a, const Conn* b) {
    return a->parked_at < b->parked_at;
  });
  for (Conn* conn : parked) {
    std::string reply;
    try {
      reply = core_.handle(*conn->request, now);
    } catch (const Error& e) {
      reply = encode_error(e.what());
    }
    if (now < conn->deadline && wait_ms(reply)) continue;
    unpark(*conn);
    send(*conn, reply);
    activity = true;
  }

  const std::size_t live = conns_.size();
  drop_closed();
  return activity || conns_.size() != live;
}

WorkerHub::Clock::time_point WorkerHub::next_deadline() const {
  Clock::time_point soonest = core_.next_expiry();
  for (const auto& conn : conns_) {
    if (conn->channel->line_buffered()) return Clock::time_point{};
    if (conn->request) soonest = std::min(soonest, conn->deadline);
  }
  return soonest;
}

void WorkerHub::linger(std::chrono::milliseconds grace,
                       bool hold_full_grace) {
  const auto deadline = Clock::now() + grace;
  for (auto& conn : conns_) {
    if (!conn->request) continue;
    unpark(*conn);
    send(*conn, encode_drain());
  }
  drop_closed();
  while ((hold_full_grace || !conns_.empty()) && Clock::now() < deadline) {
    PollSet set;
    watch(set);
    set.wait(deadline);
    accept_all();
    for (auto& conn : conns_) {
      for (std::string line; next_line(*conn, line);) {
        // Heartbeats get revoke (stop wasted work on stale leases); a
        // redialing worker's hello is acked so its next request can hear
        // drain; everything else gets drain.
        std::string reply = encode_drain();
        try {
          const Message msg = decode_message(line);
          if (msg.kind == MessageKind::kHello) {
            reply = core_.handle(msg, Clock::now());
          } else if (msg.kind == MessageKind::kHeartbeat) {
            reply = encode_revoke(msg.job);
          }
        } catch (const Error&) {
        }
        send(*conn, reply);
      }
    }
    drop_closed();
  }
}

}  // namespace mpe::dist
