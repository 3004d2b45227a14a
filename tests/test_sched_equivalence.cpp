// Scheduler-equivalence goldens: recorded synthetic-clock scenarios driven
// through ServerCore and CoordinatorCore, with every observable decision —
// reply lines, grant order, wait/backoff durations (including the jitter
// draws), phase transitions, terminal summaries, and the sealed ledger
// bytes — rendered into a transcript that must match the golden captured
// before the cores were re-founded on src/sched/. Any change in decision
// sequence (a reordered grant, a different backoff draw, a dropped reply)
// shows up as a transcript diff.
//
// Regenerating (only when a behavior change is intended):
//   MPE_REGEN_GOLDENS=1 ./test_sched_equivalence
// rewrites tests/golden/*.txt in the source tree.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/shard.hpp"
#include "server/server_core.hpp"
#include "server/server_protocol.hpp"

namespace {

namespace mp = mpe::maxpower;
namespace md = mpe::dist;
namespace ms = mpe::server;
using namespace std::chrono_literals;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `transcript` against tests/golden/<name>, or rewrites the
/// golden when MPE_REGEN_GOLDENS is set in the environment.
void check_golden(const std::string& name, const std::string& transcript) {
  const std::string path = std::string(MPE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("MPE_REGEN_GOLDENS") != nullptr) {
    std::filesystem::create_directories(MPE_GOLDEN_DIR);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << transcript;
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    return;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path
                             << " (run with MPE_REGEN_GOLDENS=1 to capture)";
  EXPECT_EQ(transcript, want) << "decision sequence diverged from the "
                                 "pre-refactor golden " << name;
}

// ---------------------------------------------------------------------------
// CoordinatorCore scenarios

using DClock = md::CoordinatorCore::Clock;
const DClock::time_point kD0 = DClock::time_point{} + std::chrono::hours(2);

std::string at(DClock::time_point t) {
  const auto ms_off =
      std::chrono::duration_cast<std::chrono::milliseconds>(t - kD0).count();
  return "t+" + std::to_string(ms_off) + "ms";
}

mp::CampaignJob tiny_job(const std::string& name, std::uint64_t seed,
                         std::size_t max_hyper) {
  mp::CampaignJob job;
  job.name = name;
  job.circuit = "c432";
  job.seed = seed;
  job.epsilon = 0.2;
  job.confidence = 0.8;
  job.max_hyper_samples = max_hyper;
  return job;
}

md::Message dmsg(const std::string& line) { return md::decode_message(line); }

const char* phase_name(md::JobPhase p) {
  switch (p) {
    case md::JobPhase::kPending: return "pending";
    case md::JobPhase::kDone: return "done";
    case md::JobPhase::kFailed: return "failed";
  }
  return "?";
}

/// One scripted exchange: transcript the request and the reply.
void play(std::ostringstream& t, md::CoordinatorCore& core,
          const std::string& line, DClock::time_point now) {
  t << at(now) << " >> " << line << "\n";
  t << at(now) << " << " << core.handle(dmsg(line), now) << "\n";
}

void probe(std::ostringstream& t, md::CoordinatorCore& core,
           const std::vector<std::string>& jobs, DClock::time_point now) {
  t << at(now) << " -- phases:";
  for (const auto& job : jobs) t << " " << job << "=" << phase_name(core.phase(job));
  t << " granted=" << core.leases_granted()
    << " shards_done=" << core.shards_done()
    << " leased=" << (core.any_leased() ? 1 : 0)
    << " finished=" << (core.finished() ? 1 : 0) << "\n";
}

void summarize(std::ostringstream& t, md::CoordinatorCore& core,
               const std::string& ledger_path) {
  const mp::CampaignResult sum = core.summary();
  t << "-- summary done=" << sum.done << " failed=" << sum.failed
    << " skipped=" << sum.skipped << " quarantined=" << sum.quarantined
    << "\n";
  for (const auto& job : sum.jobs) {
    t << "-- outcome " << job.name << " status=" << mp::to_string(job.status)
      << " attempts=" << job.attempts
      << " error=" << mpe::to_string(job.error) << "\n";
  }
  t << "-- ledger:\n" << read_file(ledger_path);
}

std::string shard_done_line(const std::string& worker, const std::string& job,
                            std::uint64_t shard, std::uint64_t lo,
                            std::uint64_t hi) {
  std::vector<mp::ShardSample> samples;
  for (std::uint64_t i = lo; i < hi; ++i) {
    mp::ShardSample s;
    s.index = i;
    s.estimate = 0.5 + 0.001 * static_cast<double>(i);
    s.units = 64;
    s.valid = true;
    s.mle_converged = true;
    samples.push_back(s);
  }
  return md::encode_shard_result(worker, job, shard, lo, hi,
                                 mp::JobStatus::kDone, mpe::ErrorCode::kOk,
                                 mp::encode_shard_samples(samples));
}

/// A sample-less report (failed/stopped) on shard 0 = [0, hi).
std::string shard_status_line(const std::string& worker,
                              const std::string& job, std::uint64_t hi,
                              mp::JobStatus status, mpe::ErrorCode error) {
  return md::encode_shard_result(worker, job, 0, 0, hi, status, error, "");
}

TEST(SchedEquivalence, CoordinatorOneShardScenario) {
  const std::string dir = fresh_dir("sched_equiv_coord_one_shard");
  md::CoordinatorConfig config;
  config.jobs = {tiny_job("j1", 3, 40), tiny_job("j2", 4, 40)};
  config.state_dir = dir;
  config.lease = 1000ms;
  config.max_assignments = 2;
  config.reassign.initial_backoff = 100ms;
  config.reassign.multiplier = 2.0;
  config.reassign.max_backoff = 400ms;
  config.jitter_seed = 42;
  // The shard covers a job's whole attempt budget: every lease is a job.
  const std::uint64_t budget = mp::job_attempt_budget(config.jobs[0]);
  config.shard_size = budget;
  md::CoordinatorCore core(config);

  std::ostringstream t;
  t << "-- budget=" << budget
    << " shards=" << mp::shard_count(budget, config.shard_size) << "\n";
  // Grants follow manifest order; a drained pool answers wait.
  play(t, core, md::encode_hello("w1"), kD0);
  play(t, core, md::encode_request("w1"), kD0);
  play(t, core, md::encode_request("w2"), kD0 + 10ms);
  play(t, core, md::encode_request("w3"), kD0 + 20ms);
  probe(t, core, {"j1", "j2"}, kD0 + 20ms);
  // Heartbeat renews w1's lease; w2 never renews.
  play(t, core, md::encode_heartbeat("w1", "j1", 0), kD0 + 500ms);
  // Both leases expire (j1 at 1500, j2 at 1010): released under jittered
  // backoff, so this request sees nothing grantable and the wait duration
  // captures the two backoff draws in order.
  play(t, core, md::encode_request("w3"), kD0 + 1600ms);
  probe(t, core, {"j1", "j2"}, kD0 + 1600ms);
  // Past the backoff window both jobs re-grant (second assignment each).
  play(t, core, md::encode_request("w1"), kD0 + 4000ms);
  play(t, core, md::encode_request("w2"), kD0 + 4010ms);
  probe(t, core, {"j1", "j2"}, kD0 + 4010ms);
  // A done result is accepted even from a stale holder, recorded exactly
  // once; the duplicate is acked without a second ledger append.
  play(t, core, shard_done_line("w9", "j1", 0, 0, budget), kD0 + 4100ms);
  play(t, core, shard_done_line("w9", "j1", 0, 0, budget), kD0 + 4150ms);
  // A stale holder's failure must not kill the current holder's job...
  play(t, core, shard_status_line("w9", "j2", budget, mp::JobStatus::kFailed,
                                  mpe::ErrorCode::kInternal),
       kD0 + 4200ms);
  // ...but the holder's graceful stop releases it for an immediate re-grant.
  play(t, core, shard_status_line("w2", "j2", budget, mp::JobStatus::kStopped,
                                  mpe::ErrorCode::kOk),
       kD0 + 4300ms);
  probe(t, core, {"j1", "j2"}, kD0 + 4300ms);
  play(t, core, md::encode_request("w3"), kD0 + 4400ms);
  // Third expiry burns j2's assignment budget: recorded failed (deadline).
  core.tick(kD0 + 6000ms);
  probe(t, core, {"j1", "j2"}, kD0 + 6000ms);
  play(t, core, md::encode_request("w1"), kD0 + 6100ms);
  summarize(t, core, dir + "/campaign.jsonl");

  check_golden("coordinator_one_shard.txt", t.str());
}

TEST(SchedEquivalence, CoordinatorShardedScenario) {
  const std::string dir = fresh_dir("sched_equiv_coord_shard");
  md::CoordinatorConfig config;
  config.jobs = {tiny_job("s1", 5, 8), tiny_job("s2", 6, 8)};
  config.state_dir = dir;
  config.lease = 1000ms;
  config.max_assignments = 3;
  config.reassign.initial_backoff = 100ms;
  config.reassign.multiplier = 2.0;
  config.reassign.max_backoff = 400ms;
  config.jitter_seed = 7;
  config.shard_size = 8;
  config.straggler_after = 1500ms;
  md::CoordinatorCore core(config);

  const std::uint64_t budget = mp::job_attempt_budget(config.jobs[0]);
  const std::size_t shards = mp::shard_count(budget, config.shard_size);
  std::ostringstream t;
  t << "-- budget=" << budget << " shards=" << shards << "\n";

  // Workers get shard leases in ascending order across jobs.
  play(t, core, md::encode_request("w1"), kD0);
  play(t, core, md::encode_request("w2"), kD0 + 10ms);
  probe(t, core, {"s1", "s2"}, kD0 + 20ms);
  // Shard heartbeat renews; an unknown claim below the holder cap is
  // adopted (coordinator-restart posture), and a duplicate adoption is
  // idempotent.
  play(t, core, md::encode_heartbeat("w1", "s1", 0), kD0 + 400ms);
  play(t, core, md::encode_heartbeat("w7", "s1", 1), kD0 + 450ms);
  play(t, core, md::encode_heartbeat("w7", "s1", 1), kD0 + 460ms);
  probe(t, core, {"s1", "s2"}, kD0 + 460ms);
  // Straggler speculation: past straggler_after, an idle v2 worker gets a
  // second holder slot on the oldest in-flight shard (not its own claim).
  play(t, core, md::encode_request("w3"), kD0 + 1700ms);
  // First valid shard result wins; the speculative loser is deduped.
  play(t, core, shard_done_line("w3", "s1", 0, 0, 8), kD0 + 1800ms);
  play(t, core, shard_done_line("w1", "s1", 0, 0, 8), kD0 + 1850ms);
  probe(t, core, {"s1", "s2"}, kD0 + 1850ms);
  // Remaining shards complete; assembly folds the prefix and records s1.
  for (std::size_t k = 1; k < shards; ++k) {
    play(t, core,
         shard_done_line("w2", "s1", k, k * config.shard_size,
                         std::min<std::uint64_t>((k + 1) * config.shard_size,
                                                 budget)),
         kD0 + 2000ms + std::chrono::milliseconds(10 * k));
  }
  probe(t, core, {"s1", "s2"}, kD0 + 3000ms);
  // s2's first shard converges it on its own.
  play(t, core, md::encode_request("w1"), kD0 + 3100ms);
  play(t, core, shard_done_line("w1", "s2", 0, 0, config.shard_size),
       kD0 + 3150ms);
  probe(t, core, {"s1", "s2"}, kD0 + 3150ms);
  play(t, core, md::encode_request("w1"), kD0 + 3200ms);
  summarize(t, core, dir + "/campaign.jsonl");

  // Restart on the same ledger: done jobs are skipped, and the summary
  // counts them as such.
  md::CoordinatorCore restarted(config);
  std::ostringstream t2;
  probe(t2, restarted, {"s1", "s2"}, kD0);
  play(t2, restarted, md::encode_request("w1"), kD0);
  summarize(t2, restarted, dir + "/campaign.jsonl");

  check_golden("coordinator_sharded.txt", t.str());
  check_golden("coordinator_sharded_restart.txt", t2.str());
}

TEST(SchedEquivalence, CoordinatorShardExpiryScenario) {
  const std::string dir = fresh_dir("sched_equiv_coord_shard_exp");
  md::CoordinatorConfig config;
  config.jobs = {tiny_job("e1", 9, 8)};
  config.state_dir = dir;
  config.lease = 1000ms;
  config.max_assignments = 2;
  config.reassign.initial_backoff = 100ms;
  config.reassign.multiplier = 2.0;
  config.reassign.max_backoff = 400ms;
  config.jitter_seed = 11;
  config.shard_size = 4;
  md::CoordinatorCore core(config);

  std::ostringstream t;
  // Lease shard 0, let it expire (backoff draw), re-grant, expire again:
  // the assignment budget burns out and the job is recorded failed.
  play(t, core, md::encode_request("w1"), kD0);
  core.tick(kD0 + 1100ms);
  probe(t, core, {"e1"}, kD0 + 1100ms);
  play(t, core, md::encode_request("w2"), kD0 + 1150ms);  // backoff-gated
  play(t, core, md::encode_request("w2"), kD0 + 2500ms);
  probe(t, core, {"e1"}, kD0 + 2500ms);
  core.tick(kD0 + 3600ms);
  probe(t, core, {"e1"}, kD0 + 3600ms);
  play(t, core, md::encode_request("w1"), kD0 + 3700ms);
  summarize(t, core, dir + "/campaign.jsonl");
  check_golden("coordinator_shard_expiry.txt", t.str());
}

// ---------------------------------------------------------------------------
// ServerCore scenario

using SClock = ms::ServerCore::Clock;
const SClock::time_point kS0 = SClock::time_point{} + std::chrono::hours(3);

std::string sat(SClock::time_point t) {
  const auto ms_off =
      std::chrono::duration_cast<std::chrono::milliseconds>(t - kS0).count();
  return "t+" + std::to_string(ms_off) + "ms";
}

void ship(std::ostringstream& t, const std::vector<ms::Outbound>& out,
          SClock::time_point now) {
  for (const auto& o : out) {
    t << sat(now) << " << conn" << o.conn << " " << o.line << "\n";
  }
}

void splay(std::ostringstream& t, ms::ServerCore& core, std::size_t conn,
           const std::string& line, SClock::time_point now) {
  t << sat(now) << " >> conn" << conn << " " << line << "\n";
  ship(t, core.handle(conn, ms::decode_server_message(line), now), now);
}

std::string sspec(const std::string& name, std::uint64_t seed = 1) {
  mp::CampaignJob job;
  job.name = name;
  job.circuit = "c432";
  job.seed = seed;
  return mp::campaign_job_to_json(job);
}

void next_jobs(std::ostringstream& t, ms::ServerCore& core,
               SClock::time_point now) {
  while (auto started = core.next_job(now)) {
    t << sat(now) << " -- start ticket=" << started->ticket << " conn="
      << started->conn << " id=" << started->job.name << " threads="
      << started->threads << " deadline=";
    if (started->deadline == SClock::time_point::max()) {
      t << "none";
    } else {
      t << sat(started->deadline);
    }
    t << "\n";
  }
}

mp::CampaignJobOutcome done_outcome(double estimate) {
  mp::CampaignJobOutcome outcome;
  outcome.status = mp::JobStatus::kDone;
  outcome.attempts = 1;
  outcome.result.estimate = estimate;
  outcome.result.ci = {estimate - 0.1, estimate + 0.1};
  outcome.result.hyper_samples = 10;
  outcome.result.units_used = 640;
  outcome.result.converged = true;
  return outcome;
}

mp::CampaignJobOutcome stopped_outcome() {
  mp::CampaignJobOutcome outcome;
  outcome.status = mp::JobStatus::kStopped;
  outcome.attempts = 1;
  return outcome;
}

TEST(SchedEquivalence, ServerCoreScenario) {
  ms::ServerConfig config;
  config.max_active = 2;
  config.max_queued_per_client = 2;
  config.max_queued_total = 3;
  config.default_deadline = 60000ms;
  config.max_deadline = 120000ms;
  config.threads_per_job = 3;
  ms::ServerCore core(config);

  std::ostringstream t;
  core.connect(1, kS0);
  core.connect(2, kS0);
  core.connect(3, kS0);
  // Handshake gating: submit before hello is an error; hello fixes it.
  splay(t, core, 1, ms::encode_submit("a1", sspec("a1")), kS0);
  splay(t, core, 1, ms::encode_hello("alice"), kS0);
  splay(t, core, 2, ms::encode_hello("bob"), kS0);
  splay(t, core, 3, ms::encode_hello("carol"), kS0);
  // Admission: valid ids only, duplicates rejected, caps enforced.
  splay(t, core, 1, ms::encode_submit("bad id!", sspec("x")), kS0 + 10ms);
  splay(t, core, 1, ms::encode_submit("a1", sspec("a1")), kS0 + 20ms);
  splay(t, core, 1, ms::encode_submit("a1", sspec("a1")), kS0 + 30ms);
  splay(t, core, 1, ms::encode_submit("a2", sspec("a2"), 500), kS0 + 40ms);
  splay(t, core, 1, ms::encode_submit("a3", sspec("a3")), kS0 + 50ms);
  splay(t, core, 2, ms::encode_submit("b1", sspec("b1"), 999999), kS0 + 60ms);
  splay(t, core, 3, ms::encode_submit("c1", sspec("c1")), kS0 + 70ms);
  // Round-robin fairness: grants alternate across connections, cursor
  // parks past each grant.
  next_jobs(t, core, kS0 + 100ms);
  splay(t, core, 3, ms::encode_stats(), kS0 + 110ms);
  // Queued-deadline sweep: a2 (500ms budget) expires in queue.
  ship(t, core.tick(kS0 + 700ms), kS0 + 700ms);
  // Cancel: queued c1 answers stopped at once; running a1 trips its token
  // and resolves through complete(); cancelling the unknown id still acks.
  splay(t, core, 3, ms::encode_cancel("c1"), kS0 + 800ms);
  splay(t, core, 3, ms::encode_cancel("nope"), kS0 + 810ms);
  splay(t, core, 1, ms::encode_cancel("a1"), kS0 + 820ms);
  ship(t, core.complete(1, stopped_outcome(), "", kS0 + 900ms), kS0 + 900ms);
  next_jobs(t, core, kS0 + 1000ms);
  // Disconnect with a running job: the result is suppressed (orphan).
  core.disconnect(2, kS0 + 1100ms);
  t << sat(kS0 + 1100ms) << " -- disconnect conn2\n";
  ship(t, core.complete(2, done_outcome(2.5), "", kS0 + 1200ms),
       kS0 + 1200ms);
  // New submits + a grant after the ring shrank.
  splay(t, core, 1, ms::encode_submit("a4", sspec("a4")), kS0 + 1300ms);
  splay(t, core, 3, ms::encode_submit("c2", sspec("c2")), kS0 + 1310ms);
  next_jobs(t, core, kS0 + 1400ms);
  ship(t, core.complete(5, done_outcome(3.25), "{\"type\":\"report\"}",
                        kS0 + 1500ms),
       kS0 + 1500ms);
  splay(t, core, 1, ms::encode_stats(), kS0 + 1600ms);
  // Drain: queued jobs answer stopped/cancelled, drain notices go out,
  // submits reject, running jobs still complete exactly once.
  ship(t, core.begin_drain(kS0 + 1700ms), kS0 + 1700ms);
  splay(t, core, 1, ms::encode_submit("a5", sspec("a5")), kS0 + 1710ms);
  ship(t, core.complete(6, done_outcome(4.5), "", kS0 + 1800ms),
       kS0 + 1800ms);
  t << "-- idle=" << (core.idle() ? 1 : 0) << "\n";
  splay(t, core, 1, ms::encode_stats(), kS0 + 1900ms);

  check_golden("server_core_scenario.txt", t.str());
}

}  // namespace
