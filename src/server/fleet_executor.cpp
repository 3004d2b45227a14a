#include "server/fleet_executor.hpp"

#include <chrono>
#include <random>
#include <utility>

#include "server/job_runtime.hpp"
#include "util/jsonl.hpp"
#include "util/metrics.hpp"

namespace mpe::server {

namespace {

dist::CoordinatorConfig fleet_core_config(const std::string& state_dir,
                                          const FleetOptions& options) {
  dist::CoordinatorConfig cfg;
  cfg.state_dir = state_dir + "/fleet";
  cfg.lease = options.lease;
  cfg.max_assignments = options.max_assignments;
  cfg.straggler_after = options.straggler_after;
  cfg.persistent = true;
  cfg.shard_size = options.shard_size;
  cfg.metrics = &util::MetricRegistry::global();
  return cfg;
}

std::string random_salt() {
  std::random_device rd;
  static constexpr char kHex[] = "0123456789abcdef";
  std::string salt(8, '0');
  std::uint32_t bits = (static_cast<std::uint32_t>(rd()) << 16) ^ rd();
  for (char& c : salt) {
    c = kHex[bits & 0xf];
    bits >>= 4;
  }
  return salt;
}

}  // namespace

FleetExecutor::FleetExecutor(maxpower::CircuitCache& cache,
                             const std::string& state_dir,
                             const FleetOptions& options,
                             dist::Listener* unix_listener,
                             dist::Listener* tcp_listener)
    : cache_(cache),
      core_(fleet_core_config(state_dir, options)),
      hub_(core_, {unix_listener, tcp_listener},
           &util::MetricRegistry::global(),
           [this](const dist::Message& msg) { shard_landed(msg); }),
      salt_(random_salt()) {
  if (unix_listener == nullptr && tcp_listener == nullptr) {
    throw Error(ErrorCode::kUsage,
                "fleet mode needs a worker-facing listener");
  }
}

FleetExecutor::~FleetExecutor() {
  // The serve loop is gone; tell lingering workers the shop is closed so
  // they exit on a drain reply instead of redialing a dead socket.
  core_.begin_drain();
  try {
    hub_.linger(std::chrono::milliseconds{1200});
  } catch (const Error&) {
    // A failing listener only cuts this courtesy short.
  }
}

std::string FleetExecutor::salted_name(std::uint64_t ticket,
                                       const std::string& id) const {
  std::string name = "f" + salt_ + "-" + std::to_string(ticket) + "-";
  const std::size_t room =
      name.size() < maxpower::kMaxCampaignJobNameBytes
          ? maxpower::kMaxCampaignJobNameBytes - name.size()
          : 0;
  name.append(id, 0, room);
  return name;
}

void FleetExecutor::start(ServerCore::Started started) {
  Inflight entry;
  entry.ticket = started.ticket;
  entry.cancel = started.cancel;
  entry.job = std::move(started.job);
  const std::string client_id = entry.job.name;
  entry.job.name = salted_name(started.ticket, client_id);
  core_.add_job(entry.job);
  const std::string name = entry.job.name;
  inflight_.emplace(name, std::move(entry));
}

void FleetExecutor::shard_landed(const dist::Message& msg) {
  const auto it = inflight_.find(msg.job);
  if (it == inflight_.end() ||
      !it->second.shards_seen.insert(msg.shard).second) {
    return;
  }
  util::JsonFields f;
  f.add("shard", msg.shard)
      .add("lo", msg.lo)
      .add("hi", msg.hi)
      .add("worker", msg.worker);
  landed_.push_back(
      {it->second.ticket, it->second.next_seq++, "shard_done", f.body()});
}

bool FleetExecutor::pump(Clock::time_point now, std::vector<ExecEvent>& events,
                         std::vector<ExecCompletion>& completions) {
  bool activity = false;

  // ServerCore tripped a job's token (cancel, deadline, disconnect): pull
  // it off the fleet. The coordinator records it stopped; workers holding
  // its shards get revoke on their next heartbeat.
  for (auto& [name, entry] : inflight_) {
    if (entry.abandoned || !entry.cancel.stop_requested()) continue;
    entry.abandoned = true;
    core_.abandon(name);
    activity = true;
  }

  // Accepts, answers worker messages, and re-asks parked requests — which
  // is how a job start()ed or abandoned above reaches an idle worker.
  if (hub_.service(now)) activity = true;
  for (ExecEvent& ev : landed_) events.push_back(std::move(ev));
  landed_.clear();
  core_.tick(now);

  for (maxpower::CampaignJobOutcome& outcome : core_.take_completions()) {
    const auto it = inflight_.find(outcome.name);
    if (it == inflight_.end()) continue;
    ExecCompletion done;
    done.ticket = it->second.ticket;
    if (outcome.status == maxpower::JobStatus::kDone) {
      // The assembled result is bit-identical to a single-process run, so
      // the report rendered from it matches the local executor's byte for
      // byte (modulo tracing, which fleet reports never include).
      done.report = render_job_report(it->second.job, outcome.result, cache_);
    }
    done.outcome = std::move(outcome);
    completions.push_back(std::move(done));
    inflight_.erase(it);
    activity = true;
  }

  // Once the drain emptied the fleet, start telling idle workers to go
  // home — the serve loop exits right after, and a worker that asks again
  // during the destructor's linger still gets the same answer.
  if (draining_ && inflight_.empty() && !core_.draining()) {
    core_.begin_drain();
    activity = true;  // parked requests hear drain on the next pass
  }
  return activity;
}

void FleetExecutor::stop_all() {
  for (auto& [name, entry] : inflight_) {
    if (entry.abandoned) continue;
    entry.abandoned = true;
    core_.abandon(name);
  }
  core_.begin_drain();
}

}  // namespace mpe::server
