#include "server/server_core.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace mpe::server {

namespace {

/// Renders one finite double the way the rest of the scrape format expects
/// (shortest round-trippable form is overkill here; %.17g is stable).
std::string render_value(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

}  // namespace

std::string render_metrics_text(const util::MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& s : snapshot.series) {
    std::string id = s.name;
    if (!s.labels.empty()) {
      id += '{';
      id += s.labels;
      id += '}';
    }
    if (s.kind == util::MetricKind::kHistogram) {
      out += id + "_count " + std::to_string(s.histogram.count) + "\n";
      out += id + "_sum " + std::to_string(s.histogram.sum) + "\n";
    } else {
      out += id + " " + render_value(s.value) + "\n";
    }
  }
  return out;
}

ServerCore::ServerCore(ServerConfig config)
    : config_(std::move(config)),
      queue_({.max_queued_per_client = config_.max_queued_per_client,
              .max_queued_total = config_.max_queued_total}) {
  if (config_.max_active == 0) config_.max_active = 1;
  config_.max_queued_per_client = queue_.limits().max_queued_per_client;
  config_.max_queued_total = queue_.limits().max_queued_total;
}

void ServerCore::connect(std::size_t conn, Clock::time_point /*now*/) {
  clients_.emplace(conn, Client{});
  queue_.add_client(conn);
}

void ServerCore::disconnect(std::size_t conn, Clock::time_point /*now*/) {
  const auto it = clients_.find(conn);
  if (it == clients_.end()) return;
  clients_.erase(it);
  queue_.remove_client(conn);  // queued jobs die with their reader
  // Running jobs of this connection become orphans: stop them early (their
  // result has no reader) and drop the result when complete() arrives.
  for (Job& job : running_) {
    if (job.conn != conn) continue;
    job.orphaned = true;
    job.cancel.request_stop();
  }
}

Outbound ServerCore::stopped_result(const Job& job, ErrorCode code) {
  maxpower::CampaignJobOutcome outcome;
  outcome.name = job.id;
  outcome.status = maxpower::JobStatus::kStopped;
  outcome.error = code;
  return Outbound{job.conn, encode_result(job.id, outcome, "")};
}

bool ServerCore::has_active_id(std::size_t conn, const std::string& id) const {
  if (const auto* queued = queue_.queue(conn)) {
    for (const Job& job : *queued) {
      if (job.id == id) return true;
    }
  }
  for (const Job& job : running_) {
    if (job.conn == conn && job.id == id && !job.orphaned) return true;
  }
  return false;
}

std::vector<Outbound> ServerCore::handle_submit(std::size_t conn,
                                                Client& /*client*/,
                                                const ServerMessage& msg,
                                                Clock::time_point now) {
  ++totals_.submits;
  const auto reject = [&](ErrorCode code, std::string_view detail) {
    ++totals_.rejected;
    return std::vector<Outbound>{
        {conn, encode_rejected(msg.id, code, detail)}};
  };
  if (draining_) {
    return reject(ErrorCode::kCancelled, "server draining");
  }
  if (!maxpower::valid_campaign_job_name(msg.id)) {
    return reject(ErrorCode::kBadData,
                  "invalid job id (want [A-Za-z0-9._-]{1,128})");
  }
  if (has_active_id(conn, msg.id)) {
    return reject(ErrorCode::kBadData, "duplicate active job id");
  }
  maxpower::CampaignJob spec;
  try {
    spec = maxpower::parse_campaign_job_line(msg.spec);
  } catch (const Error& e) {
    return reject(e.code(), e.what());
  }
  if (queue_.full(conn)) {
    return reject(ErrorCode::kResourceExhausted,
                  "job queue full; retry later");
  }

  Job job;
  job.ticket = next_ticket_++;
  job.conn = conn;
  job.id = msg.id;
  job.spec = std::move(spec);
  job.spec.name = msg.id;  // the request id IS the job id everywhere
  job.cancel = util::CancellationToken::create();
  const std::chrono::milliseconds budget = sched::resolve_deadline_budget(
      std::chrono::milliseconds{msg.deadline_ms}, config_.default_deadline,
      config_.max_deadline);
  if (budget.count() > 0) job.deadline = now + budget;
  queue_.enqueue(conn, std::move(job));
  ++totals_.accepted;
  return {{conn, encode_accepted(msg.id)}};
}

std::vector<Outbound> ServerCore::handle(std::size_t conn,
                                         const ServerMessage& msg,
                                         Clock::time_point now) {
  const auto it = clients_.find(conn);
  if (it == clients_.end()) {
    return {{conn, encode_error("unknown connection")}};
  }
  Client& client = it->second;

  switch (msg.kind) {
    case ServerMessageKind::kHello: {
      if (msg.proto != kServerProtocolVersion) {
        return {{conn, encode_error("unsupported protocol version")}};
      }
      client.hello = true;
      client.name = msg.client;
      return {{conn, encode_welcome()}};
    }
    case ServerMessageKind::kSubmit: {
      if (!client.hello) {
        return {{conn, encode_error("hello required before submit")}};
      }
      return handle_submit(conn, client, msg, now);
    }
    case ServerMessageKind::kCancel: {
      // Idempotent: cancelling an unknown/finished job still acks.
      if (auto job = queue_.remove_one(
              conn, [&](const Job& j) { return j.id == msg.id; })) {
        Outbound result = stopped_result(*job, ErrorCode::kCancelled);
        ++totals_.stopped;
        return {std::move(result), {conn, encode_ack(msg.id)}};
      }
      for (Job& job : running_) {
        if (job.conn != conn || job.id != msg.id || job.orphaned) continue;
        job.cancelled = true;
        job.cancel.request_stop();
        break;  // result arrives via complete()
      }
      return {{conn, encode_ack(msg.id)}};
    }
    case ServerMessageKind::kScrape: {
      const std::string text =
          config_.metrics != nullptr
              ? render_metrics_text(config_.metrics->snapshot())
              : std::string{};
      return {{conn, encode_metrics(text)}};
    }
    case ServerMessageKind::kStats:
      return {{conn, encode_server_stats(stats())}};
    default:
      return {{conn, encode_error("unexpected message kind")}};
  }
}

std::optional<ServerCore::Started> ServerCore::next_job(
    Clock::time_point /*now*/) {
  if (running_.size() >= config_.max_active) return std::nullopt;
  // The admission queue grants fairly: scan from its cursor, take the head
  // of the first non-empty client FIFO, park the cursor just past it.
  auto job = queue_.next();
  if (!job) return std::nullopt;
  Started started;
  started.ticket = job->ticket;
  started.conn = job->conn;
  started.job = job->spec;
  started.cancel = job->cancel;
  started.deadline = job->deadline;
  started.threads = config_.threads_per_job == 0 ? 1u
                                                 : config_.threads_per_job;
  running_.push_back(std::move(*job));
  return started;
}

std::vector<Outbound> ServerCore::complete(
    std::uint64_t ticket, const maxpower::CampaignJobOutcome& outcome,
    const std::string& report, Clock::time_point /*now*/) {
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [&](const Job& j) { return j.ticket == ticket; });
  if (it == running_.end()) return {};
  Job job = std::move(*it);
  running_.erase(it);

  // The core's own intent (cancel/deadline) wins over whatever StopCause
  // the engine reported, so a job cancelled a microsecond before it
  // converged still reads as cancelled.
  maxpower::CampaignJobOutcome final = outcome;
  final.name = job.id;
  if (final.status == maxpower::JobStatus::kStopped) {
    if (job.cancelled) final.error = ErrorCode::kCancelled;
    else if (job.deadline_hit) final.error = ErrorCode::kDeadline;
  }
  switch (final.status) {
    case maxpower::JobStatus::kDone: ++totals_.done; break;
    case maxpower::JobStatus::kFailed: ++totals_.failed; break;
    default: ++totals_.stopped; break;
  }
  if (job.orphaned) return {};  // nobody is listening
  return {{job.conn, encode_result(job.id, final, report)}};
}

std::vector<Outbound> ServerCore::tick(Clock::time_point now) {
  std::vector<Outbound> out;
  // Queued jobs past their deadline are answered now (client-id order,
  // FIFO within — the sweep's deterministic order).
  for (const Job& job :
       queue_.sweep([&](const Job& j) { return j.deadline <= now; })) {
    out.push_back(stopped_result(job, ErrorCode::kDeadline));
    ++totals_.stopped;
  }
  for (Job& job : running_) {
    if (job.deadline_hit || job.deadline > now) continue;
    job.deadline_hit = true;
    job.cancel.request_stop();  // result still arrives via complete()
  }
  return out;
}

ServerCore::Clock::time_point ServerCore::next_deadline() const {
  Clock::time_point soonest = Clock::time_point::max();
  for (const auto& [conn, client] : clients_) {
    if (const auto* queued = queue_.queue(conn)) {
      for (const Job& job : *queued) soonest = std::min(soonest, job.deadline);
    }
  }
  for (const Job& job : running_) {
    if (!job.deadline_hit) soonest = std::min(soonest, job.deadline);
  }
  return soonest;
}

std::vector<Outbound> ServerCore::begin_drain(Clock::time_point /*now*/) {
  std::vector<Outbound> out;
  if (draining_) return out;
  draining_ = true;
  for (auto& [conn, client] : clients_) {
    for (const Job& job : queue_.flush_client(conn)) {
      out.push_back(stopped_result(job, ErrorCode::kCancelled));
      ++totals_.stopped;
    }
    out.push_back({conn, encode_drain()});
  }
  return out;
}

ServerStats ServerCore::stats() const {
  ServerStats s = totals_;
  s.queued = queue_.queued_total();
  s.running = running_.size();
  s.clients = 0;
  for (const auto& [conn, client] : clients_) {
    if (client.hello) ++s.clients;
  }
  s.draining = draining_;
  if (config_.cache != nullptr) {
    const maxpower::CircuitCache::Stats cs = config_.cache->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_evictions = cs.evictions;
    s.cache_size = cs.size;
    s.cache_capacity = cs.capacity;
  }
  return s;
}

std::optional<ServerJobPhase> ServerCore::phase(std::size_t conn,
                                                const std::string& id) const {
  if (const auto* queued = queue_.queue(conn)) {
    for (const Job& job : *queued) {
      if (job.id == id) return ServerJobPhase::kQueued;
    }
  }
  for (const Job& job : running_) {
    if (job.conn == conn && job.id == id) return ServerJobPhase::kRunning;
  }
  return std::nullopt;
}

}  // namespace mpe::server
