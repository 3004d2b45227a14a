#include "dist/worker.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/circuit_cache.hpp"
#include "maxpower/shard.hpp"
#include "util/rng.hpp"

namespace mpe::dist {

namespace {

using maxpower::CampaignJob;
using maxpower::JobStatus;

constexpr auto kReplyTimeout = std::chrono::milliseconds{5000};
/// Upper bound on report delivery attempts (each may include a full redial
/// cycle); far beyond anything a live coordinator needs.
constexpr std::size_t kMaxReportAttempts = 20;

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw Error(ErrorCode::kIo, "cannot create worker state directory",
              ErrorContext{}.kv("path", path).kv("errno", std::strerror(errno))
                  .str());
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// All of one worker invocation's moving parts, so the helpers below can
/// share the channel and counters without a parameter parade.
struct WorkerLoop {
  const WorkerConfig& cfg;
  WorkerSummary sum;
  std::unique_ptr<LineChannel> ch;
  Rng rng;
  /// Every shard of the worker's lifetime reads its circuit from here, so
  /// a circuit is parsed and its tape compiled once per worker.
  maxpower::CircuitCache cache{maxpower::kDefaultCircuitCacheCapacity};

  explicit WorkerLoop(const WorkerConfig& config)
      : cfg(config),
        // Distinct workers must draw distinct backoff jitter or a killed
        // fleet redials in lockstep.
        rng(stream_seed(config.jitter_seed, fnv1a(config.worker_id))) {}

  bool cancelled() const {
    return cfg.control.should_stop() != util::StopCause::kNone;
  }

  /// True once the coordinator answered with a protocol error: no redial
  /// or resend can change its answer.
  bool refused() const { return sum.exit_error == ErrorCode::kBadData; }

  void refuse(const Message& error) {
    sum.exit_error = ErrorCode::kBadData;
    sum.error_detail = error.detail;
  }

  /// One dial + hello handshake. Leaves `ch` valid on success; an `error`
  /// reply to hello marks the run refused().
  bool dial_once() {
    ch = cfg.tcp_port > 0 ? connect_tcp(cfg.tcp_host, cfg.tcp_port)
                          : connect_unix(cfg.socket_path);
    if (!ch) return false;
    if (!ch->send_line(encode_hello(cfg.worker_id))) {
      ch.reset();
      return false;
    }
    std::string line;
    if (ch->recv_line(line, kReplyTimeout) != LineChannel::RecvStatus::kLine) {
      ch.reset();
      return false;
    }
    try {
      const Message reply = decode_message(line);
      if (reply.kind == MessageKind::kAck) return true;
      if (reply.kind == MessageKind::kError) refuse(reply);
    } catch (const Error&) {
    }
    ch.reset();
    return false;  // garbage is treated as unreachable
  }

  /// Dials under the connect_retry policy until connected, cancelled,
  /// refused, or out of attempts.
  bool connect_with_backoff() {
    for (std::size_t failures = 0;; ++failures) {
      if (cancelled() || refused()) return false;
      if (dial_once()) return true;
      if (refused() || failures + 1 >= cfg.connect_retry.max_attempts) {
        return false;
      }
      if (util::interruptible_sleep(
              util::backoff_delay(cfg.connect_retry, failures + 1, rng),
              cfg.control) != util::StopCause::kNone) {
        return false;
      }
    }
  }

  /// Sends one message and waits for its reply. The protocol is strictly
  /// one-request-one-reply per worker, so any hiccup (peer death, timeout)
  /// drops the channel to resynchronize the pairing; nullopt tells the
  /// caller to redial and resend.
  std::optional<Message> transact(const std::string& line) {
    if (!ch) return std::nullopt;
    if (!ch->send_line(line)) {
      ch.reset();
      return std::nullopt;
    }
    std::string reply;
    if (ch->recv_line(reply, kReplyTimeout) !=
        LineChannel::RecvStatus::kLine) {
      ch.reset();
      return std::nullopt;
    }
    try {
      return decode_message(reply);
    } catch (const Error&) {
      ch.reset();
      return std::nullopt;
    }
  }

  /// Delivers a pre-encoded terminal report at-least-once: resend across
  /// redials until the coordinator answers. Any answer settles it — ack is
  /// the normal case; revoke/error means the coordinator has moved past
  /// this work and resending would change nothing.
  bool deliver_until_acked(const std::string& line) {
    for (std::size_t attempt = 0; attempt < kMaxReportAttempts; ++attempt) {
      if (!ch) {
        if (cancelled()) return false;  // drain: don't block exit on redial
        if (!connect_with_backoff()) return false;
      }
      const auto reply = transact(line);
      if (reply) return true;
    }
    return false;
  }

  /// Runs `work` on a helper thread while this thread keeps the lease
  /// alive: it sleeps on the runner's completion and wakes only for the
  /// next heartbeat. `beat` sends one heartbeat and returns true when the
  /// coordinator revoked the lease; revocation and the worker's own brake
  /// both trip `cancel`, so the runner winds down within one heartbeat.
  /// Returns whether the lease was revoked.
  bool run_beating(const std::function<void()>& work,
                   const util::CancellationToken& cancel,
                   const std::function<bool()>& beat) {
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    std::thread runner([&] {
      work();
      const std::lock_guard<std::mutex> lock(mu);
      finished = true;
      cv.notify_one();
    });

    bool revoked = false;
    std::unique_lock<std::mutex> lock(mu);
    while (!finished) {
      if (cancelled() || refused()) cancel.request_stop();
      lock.unlock();
      // A dead channel is not fatal mid-shard: the runner keeps computing
      // while we redial once per beat; on success the heartbeat re-adopts
      // the lease from a restarted coordinator.
      if (!ch && !cancelled() && !refused()) dial_once();
      if (ch && beat()) {
        revoked = true;
        cancel.request_stop();
      }
      lock.lock();
      cv.wait_for(lock, cfg.heartbeat, [&] { return finished; });
    }
    lock.unlock();
    runner.join();
    return revoked;
  }

  /// Runs one shard lease: computes hyper-samples [lo, hi) of the job on a
  /// helper thread (resuming the shard's own checkpoint), heartbeats the
  /// shard, and ships the sample slice back until acked.
  void execute_shard_lease(const Message& lease) {
    ++sum.leases;
    CampaignJob job;
    try {
      job = maxpower::parse_campaign_job_line(lease.spec);
    } catch (const Error& e) {
      ++sum.failed;
      deliver_until_acked(encode_shard_result(
          cfg.worker_id, lease.job, lease.shard, lease.lo, lease.hi,
          JobStatus::kFailed, e.code(), ""));
      return;
    }

    const util::CancellationToken shard_cancel =
        util::CancellationToken::create();
    maxpower::ShardRunOptions options;
    options.state_dir = cfg.state_dir;
    options.control.cancel = shard_cancel;
    options.control.deadline = cfg.control.deadline;
    if (lease.job_deadline_ms > 0) {
      const auto budget = util::Deadline::after(
          std::chrono::milliseconds(lease.job_deadline_ms));
      if (budget.remaining() < options.control.deadline.remaining()) {
        options.control.deadline = budget;
      }
    }
    options.checkpoint_every_k = cfg.checkpoint_every_k;

    maxpower::ShardOutcome outcome;
    // A revoke means someone else owns (or finished) the shard: stop
    // computing but keep the checkpoint — a future holder resumes it.
    const bool revoked = run_beating(
        [&] {
          outcome = maxpower::run_campaign_shard(job, lease.shard, lease.lo,
                                                 lease.hi, options, cache);
        },
        shard_cancel,
        [&] {
          const auto reply = transact(
              encode_heartbeat(cfg.worker_id, lease.job, lease.shard));
          return reply && reply->kind == MessageKind::kRevoke;
        });

    if (revoked && outcome.status != JobStatus::kDone) {
      ++sum.stopped;
      return;
    }
    std::string samples;
    switch (outcome.status) {
      case JobStatus::kDone:
        ++sum.shards;
        samples = maxpower::encode_shard_samples(outcome.samples);
        break;
      case JobStatus::kFailed: ++sum.failed; break;
      default: ++sum.stopped; break;
    }
    deliver_until_acked(encode_shard_result(cfg.worker_id, lease.job,
                                            lease.shard, lease.lo, lease.hi,
                                            outcome.status, outcome.error,
                                            samples));
  }

  WorkerSummary run() {
    for (;;) {
      if (cancelled()) {
        sum.exit_error = ErrorCode::kCancelled;
        return sum;
      }
      if (!ch && !connect_with_backoff()) {
        if (!refused()) {
          sum.exit_error =
              cancelled() ? ErrorCode::kCancelled : ErrorCode::kIo;
        }
        return sum;
      }
      const auto reply = transact(encode_request(cfg.worker_id));
      if (!reply) continue;  // channel dropped: redial on the next pass
      switch (reply->kind) {
        case MessageKind::kShardLease:
          execute_shard_lease(*reply);
          break;
        case MessageKind::kWait:
          // The coordinator already held this request for the wait's
          // length (it parks idle requests): ask again at once.
          break;
        case MessageKind::kDrain:
          sum.drained = true;
          return sum;
        case MessageKind::kError:
          refuse(*reply);
          return sum;
        default:
          break;  // unexpected but harmless; ask again
      }
    }
  }
};

}  // namespace

WorkerSummary run_worker(const WorkerConfig& config) {
  if ((config.socket_path.empty() && config.tcp_port == 0) ||
      config.worker_id.empty() || config.state_dir.empty()) {
    throw Error(ErrorCode::kPrecondition,
                "WorkerConfig needs socket_path or tcp_port, plus "
                "worker_id and state_dir");
  }
  ensure_directory(config.state_dir);
  WorkerLoop loop(config);
  return loop.run();
}

}  // namespace mpe::dist
