#include "dist/coordinator.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include "dist/transport.hpp"
#include "dist/worker_hub.hpp"
#include "maxpower/ledger.hpp"
#include "util/status.hpp"

namespace mpe::dist {

namespace {

using maxpower::CampaignJobOutcome;
using maxpower::JobStatus;

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw Error(ErrorCode::kIo, "cannot create campaign state directory",
              ErrorContext{}.kv("path", path).kv("errno", std::strerror(errno))
                  .str());
}

}  // namespace

CoordinatorCore::CoordinatorCore(CoordinatorConfig config)
    : config_(std::move(config)), jitter_rng_(config_.jitter_seed) {
  if (config_.state_dir.empty()) {
    throw Error(ErrorCode::kPrecondition,
                "CoordinatorConfig::state_dir must be set");
  }
  if (config_.shard_size == 0) {
    throw Error(ErrorCode::kPrecondition,
                "CoordinatorConfig::shard_size must be at least 1");
  }
  if (config_.max_assignments == 0) config_.max_assignments = 1;
  ensure_directory(config_.state_dir);
  report_path_ = config_.report_path.empty()
                     ? config_.state_dir + "/campaign.jsonl"
                     : config_.report_path;

  // A shard claim allows a second speculative holder (straggler re-issue,
  // first valid result wins).
  shard_policy_.lease = config_.lease;
  shard_policy_.max_assignments = config_.max_assignments;
  shard_policy_.reassign = config_.reassign;
  shard_policy_.max_holders = 2;
  shard_policy_.straggler_after = config_.straggler_after;

  // The specs move into their JobStates: one container, so a retired job
  // leaves nothing behind.
  std::vector<maxpower::CampaignJob> manifest = std::move(config_.jobs);
  config_.jobs.clear();
  jobs_.reserve(manifest.size());
  for (auto& job : manifest) {
    if (!maxpower::valid_campaign_job_name(job.name)) {
      throw Error(ErrorCode::kBadData, "invalid campaign job name",
                  ErrorContext{}.kv("job", job.name).str());
    }
    if (!by_name_.emplace(job.name, jobs_.size()).second) {
      throw Error(ErrorCode::kBadData, "duplicate job name in manifest",
                  ErrorContext{}.kv("job", job.name).str());
    }
    jobs_.push_back(make_state(std::move(job)));
  }
  publish_live_jobs();

  // The ledger is the only durable coordinator state: a restarted
  // coordinator rediscovers completed work here, and in-flight work through
  // shard-lease adoption (see handle/kHeartbeat).
  const maxpower::LedgerReadResult ledger_read =
      maxpower::read_ledger_file(report_path_);
  quarantined_ = ledger_read.corrupt.size();
  maxpower::quarantine_ledger_lines(report_path_, ledger_read.corrupt);
  for (const auto& [name, status] : ledger_read.final_status()) {
    if (status != "done") continue;  // failed/stopped jobs re-run
    if (auto* state = find(name)) {
      state->terminal = true;
      state->skipped = true;
      state->outcome.status = JobStatus::kSkipped;
    }
  }
  // Done-shard records carry their sample payload inline, so partial
  // progress of in-flight jobs also survives a coordinator restart:
  // rebuild it here, then fold any prefix that already reached its job's
  // stopping point.
  for (const auto& rec : ledger_read.records) {
    if (!rec.is_shard || rec.status != "done") continue;
    JobState* state = find(rec.job);
    if (state == nullptr || state->phase() != JobPhase::kPending ||
        rec.shard >= state->shards.size()) {
      continue;
    }
    ShardState& shard = state->shards[rec.shard];
    if (shard.lease.phase == sched::LeasePhase::kDone) {
      continue;  // duplicate record
    }
    if (shard.lo != rec.lo || shard.hi != rec.hi) {
      continue;  // foreign partition (shard_size changed between runs)
    }
    std::vector<maxpower::ShardSample> samples;
    try {
      samples = maxpower::decode_shard_samples(rec.samples);
    } catch (const Error&) {
      continue;  // mangled payload: the shard simply recomputes
    }
    if (samples.size() != shard.hi - shard.lo) continue;
    bool contiguous = true;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      contiguous = contiguous && samples[i].index == shard.lo + i;
    }
    if (!contiguous) continue;
    sched::complete(shard.lease);
    shard.samples = std::move(samples);
    ++shards_done_;
  }
  for (auto& state : jobs_) try_assemble(state);
}

CoordinatorCore::JobState CoordinatorCore::make_state(
    maxpower::CampaignJob job) {
  JobState state;
  state.outcome.name = job.name;
  state.job = std::move(job);
  const std::size_t size = config_.shard_size;
  const std::uint64_t attempts = maxpower::job_attempt_budget(state.job);
  const std::size_t n = maxpower::shard_count(attempts, size);
  state.shards.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const maxpower::ShardRange range = maxpower::shard_range(attempts, size, k);
    state.shards[k].lo = range.lo;
    state.shards[k].hi = range.hi;
  }
  return state;
}

void CoordinatorCore::publish_live_jobs() {
  if (config_.metrics == nullptr) return;
  const auto level = static_cast<std::int64_t>(jobs_.size());
  config_.metrics->gauge("mpe_coord_live_jobs").add(level - live_jobs_metric_);
  live_jobs_metric_ = level;
}

void CoordinatorCore::observe_shard_latency(const ShardState& shard,
                                            Clock::time_point now) {
  if (config_.metrics == nullptr) return;
  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
      now - shard.lease.leased_since);
  config_.metrics->histogram("mpe_coord_shard_latency_ms")
      .observe(static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, static_cast<std::int64_t>(latency.count()))));
}

void CoordinatorCore::add_job(maxpower::CampaignJob job) {
  if (!maxpower::valid_campaign_job_name(job.name)) {
    throw Error(ErrorCode::kBadData, "invalid campaign job name",
                ErrorContext{}.kv("job", job.name).str());
  }
  if (!by_name_.emplace(job.name, jobs_.size()).second) {
    throw Error(ErrorCode::kBadData, "duplicate job name",
                ErrorContext{}.kv("job", job.name).str());
  }
  jobs_.push_back(make_state(std::move(job)));
  publish_live_jobs();
}

bool CoordinatorCore::abandon(const std::string& job) {
  JobState* state = find(job);
  if (state == nullptr || state->phase() != JobPhase::kPending) return false;
  // attempts stays 0: the job's shards, not the job, count lease grants.
  CampaignJobOutcome outcome;
  outcome.name = state->job.name;
  outcome.status = JobStatus::kStopped;
  outcome.error = ErrorCode::kCancelled;
  record(*state, outcome);
  return true;
}

std::vector<CampaignJobOutcome> CoordinatorCore::take_completions() {
  std::vector<CampaignJobOutcome> out = std::exchange(completions_, {});
  if (!config_.persistent || out.empty()) return out;
  // Retirement: the outcome now belongs to the caller, and a persistent
  // coordinator must not hold every job it ever ran. Late messages for a
  // retired job meet the unknown-job replies (revoke / error), which
  // workers already treat as settled.
  std::erase_if(jobs_, [&](const JobState& s) {
    return std::any_of(out.begin(), out.end(), [&](const auto& done) {
      return done.name == s.job.name;
    });
  });
  by_name_.clear();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    by_name_.emplace(jobs_[i].job.name, i);
  }
  publish_live_jobs();
  return out;
}

CoordinatorCore::JobState* CoordinatorCore::find(const std::string& job) {
  const auto it = by_name_.find(job);
  return it == by_name_.end() ? nullptr : &jobs_[it->second];
}

void CoordinatorCore::record(JobState& state,
                             const CampaignJobOutcome& outcome) {
  state.outcome = outcome;
  state.terminal = true;
  state.failed = outcome.status != JobStatus::kDone;
  maxpower::append_ledger_line(report_path_,
                               maxpower::campaign_record_line(outcome));
  completions_.push_back(state.outcome);
}

void CoordinatorCore::fail_exhausted(JobState& state, std::size_t attempts,
                                     ErrorCode error) {
  CampaignJobOutcome outcome;
  outcome.name = state.job.name;
  outcome.status = JobStatus::kFailed;
  outcome.attempts = attempts;
  outcome.error = error;
  record(state, outcome);
}

std::string CoordinatorCore::grant_shard(JobState& state, std::size_t k,
                                         const std::string& worker,
                                         Clock::time_point now) {
  ShardState& shard = state.shards[k];
  sched::grant(shard.lease, shard_policy_, worker, now);
  ++leases_granted_;
  return encode_shard_lease(
      state.job.name, maxpower::campaign_job_to_json(state.job),
      static_cast<std::uint64_t>(k), shard.lo, shard.hi,
      static_cast<std::uint64_t>(config_.lease.count()),
      static_cast<std::uint64_t>(config_.job_deadline.count()));
}

void CoordinatorCore::try_assemble(JobState& state) {
  if (state.phase() == JobPhase::kDone || state.phase() == JobPhase::kFailed) {
    return;
  }
  std::vector<maxpower::ShardSample> prefix;
  for (const auto& shard : state.shards) {
    if (shard.lease.phase != sched::LeasePhase::kDone) break;
    prefix.insert(prefix.end(), shard.samples.begin(), shard.samples.end());
  }
  if (prefix.empty()) return;
  const maxpower::CampaignJob& job = state.job;
  const maxpower::AssembledJob assembled =
      maxpower::assemble_job(job, prefix);
  if (!assembled.terminal) return;  // probe only: more shards needed
  record(state, maxpower::finished_job_outcome(job, assembled.result));
}

void CoordinatorCore::tick(Clock::time_point now) {
  for (auto& state : jobs_) {
    if (state.phase() != JobPhase::kPending) continue;
    for (auto& shard : state.shards) {
      if (shard.lease.phase != sched::LeasePhase::kLeased) continue;
      // A shard that burned its whole lease budget (workers keep dying
      // under it, or it stalls past every lease) fails its job so the
      // campaign can terminate.
      if (sched::expire(shard.lease, shard_policy_, now, jitter_rng_) ==
          sched::ExpiryVerdict::kExhausted) {
        fail_exhausted(state, shard.lease.assignments, ErrorCode::kDeadline);
        break;  // job terminal; its other shards are moot
      }
    }
  }
}

std::string CoordinatorCore::handle(const Message& msg, Clock::time_point now) {
  tick(now);
  switch (msg.kind) {
    case MessageKind::kHello:
      // The single version gate: requests carry no capability bits.
      if (msg.proto != kProtocolVersion) {
        return encode_error("protocol version mismatch");
      }
      return encode_ack();

    case MessageKind::kRequest: {
      if (draining_) return encode_drain();
      // Manifest order across jobs, ascending shards within one.
      Clock::time_point soonest = Clock::time_point::max();
      for (auto& state : jobs_) {
        if (state.phase() != JobPhase::kPending) continue;
        for (std::size_t k = 0; k < state.shards.size(); ++k) {
          ShardState& shard = state.shards[k];
          if (shard.lease.phase != sched::LeasePhase::kPending) continue;
          if (sched::grantable(shard.lease, now)) {
            return grant_shard(state, k, msg.worker, now);
          }
          soonest = std::min(soonest, shard.lease.earliest_grant);
        }
      }
      // Nothing fresh to hand out: hunt for a straggler. The oldest
      // in-flight shard that has been leased longer than straggler_after
      // gets a second, speculative holder; the first valid result wins and
      // the ledger dedups the loser.
      JobState* spec_state = nullptr;
      std::size_t spec_k = 0;
      Clock::time_point oldest = Clock::time_point::max();
      for (auto& state : jobs_) {
        if (state.phase() != JobPhase::kPending) continue;
        for (std::size_t k = 0; k < state.shards.size(); ++k) {
          ShardState& shard = state.shards[k];
          if (!sched::straggler_eligible(shard.lease, shard_policy_,
                                         msg.worker, now)) {
            continue;
          }
          if (shard.lease.leased_since < oldest) {
            oldest = shard.lease.leased_since;
            spec_state = &state;
            spec_k = k;
          }
        }
      }
      if (spec_state != nullptr) {
        return grant_shard(*spec_state, spec_k, msg.worker, now);
      }
      // A persistent (estimation-as-a-service) coordinator never declares
      // the campaign over on its own: the job set is dynamic, so an empty
      // pool means "come back soon", not "go home".
      if (!config_.persistent && finished()) return encode_drain();
      // Nothing grantable *yet*: pending jobs are backoff-gated or leased
      // elsewhere. Tell the worker when to come back.
      std::chrono::milliseconds wait{250};
      if (soonest != Clock::time_point::max()) {
        wait = std::chrono::duration_cast<std::chrono::milliseconds>(soonest -
                                                                     now);
      }
      wait = std::clamp(wait, std::chrono::milliseconds{50},
                        std::chrono::milliseconds{1000});
      return encode_wait(static_cast<std::uint64_t>(wait.count()));
    }

    case MessageKind::kHeartbeat: {
      JobState* state = find(msg.job);
      if (state == nullptr || state->phase() != JobPhase::kPending ||
          msg.shard >= state->shards.size()) {
        return encode_revoke(msg.job);
      }
      // The substrate settles the rest: renewal for a live holder, adoption
      // for an in-flight claim this coordinator does not know (it
      // restarted, or the claim expired before a re-grant), revoke when the
      // shard is done or both holder slots are taken.
      switch (sched::heartbeat(state->shards[msg.shard].lease, shard_policy_,
                               msg.worker, now)) {
        case sched::HeartbeatVerdict::kAdopted:
          ++leases_granted_;
          [[fallthrough]];
        case sched::HeartbeatVerdict::kRenewed:
          return encode_ack();
        case sched::HeartbeatVerdict::kRejected:
          break;
      }
      return encode_revoke(msg.job);
    }

    case MessageKind::kShardResult: {
      JobState* state = find(msg.job);
      if (state == nullptr) return encode_error("shard result for unknown job");
      if (state->phase() == JobPhase::kDone ||
          state->phase() == JobPhase::kFailed) {
        // Job already terminal: a late or duplicate shard report. Ack
        // without appending — the ledger already tells the whole story.
        return encode_ack();
      }
      if (msg.shard >= state->shards.size()) {
        return encode_error("shard result out of range");
      }
      ShardState& shard = state->shards[msg.shard];
      if (shard.lo != msg.lo || shard.hi != msg.hi) {
        return encode_error("shard result range mismatch");
      }
      switch (msg.shard_status) {
        case JobStatus::kDone: {
          if (shard.lease.phase == sched::LeasePhase::kDone) {
            return encode_ack();  // first result won; dedup the loser
          }
          std::vector<maxpower::ShardSample> samples;
          try {
            samples = maxpower::decode_shard_samples(msg.samples);
          } catch (const Error&) {
            return encode_error("malformed shard samples");
          }
          bool covers = samples.size() == shard.hi - shard.lo;
          for (std::size_t i = 0; covers && i < samples.size(); ++i) {
            covers = samples[i].index == shard.lo + i;
          }
          if (!covers) {
            return encode_error("shard samples do not cover the range");
          }
          observe_shard_latency(shard, now);
          sched::complete(shard.lease);
          shard.samples = std::move(samples);
          ++shards_done_;
          maxpower::append_ledger_line(
              report_path_,
              maxpower::shard_record_line(msg.job, msg.shard, shard.lo,
                                          shard.hi, msg.worker,
                                          shard.samples));
          try_assemble(*state);
          return encode_ack();
        }
        case JobStatus::kFailed: {
          sched::drop_holder(shard.lease, msg.worker);
          if (shard.lease.phase == sched::LeasePhase::kLeased &&
              shard.lease.holders.empty()) {
            if (shard.lease.assignments >= shard_policy_.max_assignments) {
              fail_exhausted(*state, shard.lease.assignments,
                             msg.shard_error == ErrorCode::kOk
                                 ? ErrorCode::kDeadline
                                 : msg.shard_error);
            } else {
              sched::release(shard.lease, shard_policy_, now,
                             /*count_backoff=*/true, jitter_rng_);
            }
          }
          return encode_ack();
        }
        case JobStatus::kStopped: {
          // Graceful hand-back: the shard checkpoint keeps the progress.
          sched::drop_holder(shard.lease, msg.worker);
          if (shard.lease.phase == sched::LeasePhase::kLeased &&
              shard.lease.holders.empty()) {
            sched::release(shard.lease, shard_policy_, now,
                           /*count_backoff=*/false, jitter_rng_);
          }
          return encode_ack();
        }
        case JobStatus::kSkipped:
          return encode_ack();
      }
      return encode_ack();
    }

    case MessageKind::kShardLease:
    case MessageKind::kWait:
    case MessageKind::kDrain:
    case MessageKind::kAck:
    case MessageKind::kRevoke:
    case MessageKind::kError:
      break;  // coordinator-to-worker kinds are invalid inbound
  }
  return encode_error("unexpected message kind");
}

CoordinatorCore::Clock::time_point CoordinatorCore::next_expiry() const {
  // Exactly the holders tick() would expire.
  Clock::time_point soonest = Clock::time_point::max();
  for (const auto& state : jobs_) {
    if (state.phase() != JobPhase::kPending) continue;
    for (const auto& shard : state.shards) {
      if (shard.lease.phase != sched::LeasePhase::kLeased) continue;
      for (const auto& holder : shard.lease.holders) {
        soonest = std::min(soonest, holder.expiry);
      }
    }
  }
  return soonest;
}

bool CoordinatorCore::any_leased() const {
  return std::any_of(jobs_.begin(), jobs_.end(), [](const JobState& s) {
    if (s.phase() != JobPhase::kPending) return false;
    return std::any_of(s.shards.begin(), s.shards.end(),
                       [](const ShardState& shard) {
                         return shard.lease.phase ==
                                    sched::LeasePhase::kLeased &&
                                !shard.lease.holders.empty();
                       });
  });
}

bool CoordinatorCore::finished() const {
  return std::all_of(jobs_.begin(), jobs_.end(), [](const JobState& s) {
    return s.phase() == JobPhase::kDone || s.phase() == JobPhase::kFailed;
  });
}

maxpower::CampaignResult CoordinatorCore::summary() const {
  maxpower::CampaignResult result;
  result.quarantined = quarantined_;
  for (const auto& state : jobs_) {
    if (state.phase() == JobPhase::kDone && state.skipped) {
      ++result.skipped;
    } else if (state.phase() == JobPhase::kDone) {
      ++result.done;
    } else if (state.phase() == JobPhase::kFailed) {
      ++result.failed;
    }
    if (state.phase() == JobPhase::kDone ||
        state.phase() == JobPhase::kFailed) {
      result.jobs.push_back(state.outcome);
    }
  }
  return result;
}

JobPhase CoordinatorCore::phase(const std::string& job) const {
  const auto it = by_name_.find(job);
  if (it == by_name_.end()) {
    throw Error(ErrorCode::kBadData, "unknown job",
                ErrorContext{}.kv("job", job).str());
  }
  return jobs_[it->second].phase();
}

maxpower::CampaignResult serve_campaign(
    CoordinatorCore& core, const CoordinatorServerOptions& options) {
  UnixListener listener(options.socket_path);
  return serve_campaign(core, listener, options);
}

maxpower::CampaignResult serve_campaign(
    CoordinatorCore& core, Listener& listener,
    const CoordinatorServerOptions& options) {
  using Clock = CoordinatorCore::Clock;
  // Without a waker, a tripped control is still seen this often.
  constexpr std::chrono::milliseconds kControlCheck{1000};
  WorkerHub hub(core, {&listener});

  const auto drain_grace = options.drain_grace.count() > 0
                               ? options.drain_grace
                               : std::chrono::milliseconds{30000};
  Clock::time_point drain_deadline = Clock::time_point::max();

  for (;;) {
    const auto now = Clock::now();
    core.tick(now);
    if (options.control.should_stop() != util::StopCause::kNone &&
        !core.draining()) {
      core.begin_drain();
    }
    if (core.draining() && drain_deadline == Clock::time_point::max()) {
      drain_deadline = now + drain_grace;
    }
    if (core.finished()) break;
    if (core.draining() && (!core.any_leased() || now >= drain_deadline)) {
      break;
    }
    // Anything moved: look again before blocking.
    if (hub.service(now)) continue;

    PollSet set;
    hub.watch(set);
    if (options.waker != nullptr) set.add(options.waker->fd());
    Clock::time_point wake_at =
        std::min({hub.next_deadline(), drain_deadline, now + kControlCheck});
    if (!options.control.deadline.unlimited()) {
      wake_at = std::min(wake_at, now + options.control.deadline.remaining());
    }
    set.wait(wake_at);
    if (options.waker != nullptr) options.waker->clear();
  }

  maxpower::CampaignResult result = core.summary();
  if (core.draining() && !core.finished()) {
    result.stopped = options.control.should_stop() != util::StopCause::kNone
                         ? options.control.should_stop()
                         : util::StopCause::kCancelled;
  }
  // Linger so workers learn the campaign is over from a drain reply
  // instead of burning their whole redial budget against a vanished
  // socket. Hold the full grace: a worker launched with the coordinator
  // may still be backing off from a dial that came before the listener,
  // and a short campaign can finish before its next try.
  hub.linger(std::chrono::milliseconds{2000}, /*hold_full_grace=*/true);
  return result;
}

}  // namespace mpe::dist
