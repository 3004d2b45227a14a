// dist/: transport framing (including byte-level torn-frame reassembly and
// frame-less flood overflow), protocol round-trips (including bit-exact
// doubles over the wire), the CoordinatorCore shard-lease state machine
// under a synthetic clock — one-shard jobs (grant order, heartbeat renewal,
// expiry + bounded reassignment, adoption after coordinator restart,
// exactly-once result dedup, drain) and multi-shard jobs (ascending grants,
// straggler speculation, shard-granular expiry, ledger-rebuilt restart),
// the hello version gate — and in-process coordinator + worker fleets over
// a real Unix socket and a real TCP listener whose merged ledgers must be
// byte-identical to a single-process campaign of the same manifest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "dist/worker_hub.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/shard.hpp"
#include "util/atomic_file.hpp"
#include "util/metrics.hpp"

namespace {

namespace mp = mpe::maxpower;
namespace md = mpe::dist;
using namespace std::chrono_literals;
using Clock = md::CoordinatorCore::Clock;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

mp::CampaignJob tiny_job(const std::string& name, std::uint64_t seed) {
  mp::CampaignJob job;
  job.name = name;
  job.circuit = "c432";
  job.seed = seed;
  job.epsilon = 0.2;
  job.confidence = 0.8;
  job.max_hyper_samples = 100;
  return job;
}

md::CoordinatorConfig two_job_config(const std::string& dir) {
  md::CoordinatorConfig config;
  config.jobs = {tiny_job("j1", 3), tiny_job("j2", 4)};
  config.state_dir = dir;
  config.lease = 5000ms;
  config.reassign.initial_backoff = 100ms;
  config.reassign.max_backoff = 400ms;
  return config;
}

md::Message request(const std::string& worker) {
  md::Message m;
  m.kind = md::MessageKind::kRequest;
  m.worker = worker;
  return m;
}

md::Message heartbeat(const std::string& worker, const std::string& job,
                      std::uint64_t shard) {
  md::Message m;
  m.kind = md::MessageKind::kHeartbeat;
  m.worker = worker;
  m.job = job;
  m.shard = shard;
  return m;
}

md::MessageKind reply_kind(const std::string& line) {
  return md::decode_message(line).kind;
}

// Synthetic shard payloads for driving the coordinator state machine
// without real circuit work. spread == 0 yields identical estimates, which
// the interval rule accepts as converged at min_hyper_samples — the first
// assembled prefix is then terminal and the job completes. A wide spread
// keeps the job unconverged, so done shards accumulate while the job stays
// pending.
std::vector<mp::ShardSample> synthetic_samples(std::uint64_t lo,
                                               std::uint64_t hi,
                                               double spread) {
  std::vector<mp::ShardSample> out;
  for (std::uint64_t i = lo; i < hi; ++i) {
    mp::ShardSample s;
    s.index = i;
    s.estimate = 5.0 + spread * static_cast<double>(i % 5);
    s.units = 100;
    s.valid = true;
    s.mle_converged = true;
    out.push_back(s);
  }
  return out;
}

/// A terminal shard report without samples (failed/stopped).
md::Message shard_report(const std::string& worker, const std::string& job,
                         std::uint64_t shard, std::uint64_t lo,
                         std::uint64_t hi, mp::JobStatus status) {
  md::Message m;
  m.kind = md::MessageKind::kShardResult;
  m.worker = worker;
  m.job = job;
  m.shard = shard;
  m.lo = lo;
  m.hi = hi;
  m.shard_status = status;
  return m;
}

md::Message shard_done(const std::string& worker, const std::string& job,
                       std::uint64_t shard, std::uint64_t lo, std::uint64_t hi,
                       double spread = 0.0) {
  md::Message m = shard_report(worker, job, shard, lo, hi, mp::JobStatus::kDone);
  m.samples = mp::encode_shard_samples(synthetic_samples(lo, hi, spread));
  return m;
}

md::CoordinatorConfig sharded_config(const std::string& dir) {
  auto config = two_job_config(dir);
  config.shard_size = 8;  // tiny_job attempt budget 116 -> shards of 8
  return config;
}

/// Every job one shard: the size covers tiny_job's whole attempt budget,
/// so each lease is a whole job.
md::CoordinatorConfig whole_job_config(const std::string& dir) {
  auto config = two_job_config(dir);
  config.shard_size = 200;
  return config;
}

/// tiny_job's attempt budget: the one shard of a whole_job_config job is
/// [0, kBudget).
const std::uint64_t kBudget = mp::job_attempt_budget(tiny_job("j", 1));

/// `job`'s one shard done with identical estimates (the job converges).
md::Message whole_job_done(const std::string& worker, const std::string& job) {
  return shard_done(worker, job, 0, 0, kBudget);
}

// ---------------------------------------------------------------- transport

TEST(Transport, LineFramingOverSocketpair) {
  auto [a, b] = md::socketpair_channel();
  ASSERT_TRUE(a->send_line("one"));
  ASSERT_TRUE(a->send_line("two"));
  std::string line;
  ASSERT_EQ(b->recv_line(line, 1000ms), md::LineChannel::RecvStatus::kLine);
  EXPECT_EQ(line, "one");
  EXPECT_TRUE(b->line_buffered());
  ASSERT_EQ(b->recv_line(line, 0ms), md::LineChannel::RecvStatus::kLine);
  EXPECT_EQ(line, "two");
  EXPECT_EQ(b->recv_line(line, 0ms), md::LineChannel::RecvStatus::kTimeout);
}

TEST(Transport, PeerDeathIsAStatusNotASignal) {
  auto [a, b] = md::socketpair_channel();
  b->close();
  std::string line;
  EXPECT_EQ(a->recv_line(line, 100ms), md::LineChannel::RecvStatus::kClosed);
  // send into a closed peer: false, not SIGPIPE (first send may succeed
  // into the kernel buffer; a follow-up must fail).
  a->send_line("x");
  EXPECT_FALSE(a->send_line("y") && a->send_line("z"));
}

TEST(Transport, UnixListenerAcceptTimesOutCleanly) {
  const std::string sock = fresh_dir("t_listen") + ".sock";
  md::UnixListener listener(sock);
  EXPECT_EQ(listener.accept(20ms), nullptr);
  auto dialer = md::connect_unix(sock);
  ASSERT_NE(dialer, nullptr);
  auto served = listener.accept(1000ms);
  ASSERT_NE(served, nullptr);
  ASSERT_TRUE(dialer->send_line("hi"));
  std::string line;
  ASSERT_EQ(served->recv_line(line, 1000ms),
            md::LineChannel::RecvStatus::kLine);
  EXPECT_EQ(line, "hi");
}

TEST(Transport, TornFramesReassembleAtEverySplitOffset) {
  // A TCP segment boundary can land anywhere inside a frame. Split one
  // realistic message at every byte offset and prove the receive path never
  // yields a partial line and always reassembles the original bytes.
  auto [a, b] = md::socketpair_channel();
  const std::string payload = md::encode_shard_result(
      "w0", "j1", 3, 24, 32, mp::JobStatus::kDone, mpe::ErrorCode::kOk,
      mp::encode_shard_samples(synthetic_samples(24, 32, 0.25)));
  const std::string wire = payload + "\n";
  std::string line;
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    if (cut > 0) {
      ASSERT_EQ(::write(a->fd(), wire.data(), cut), static_cast<ssize_t>(cut));
    }
    if (cut < wire.size()) {
      // The frame is torn mid-line: polling must report "no line yet",
      // never a truncated one.
      ASSERT_EQ(b->recv_line(line, 0ms), md::LineChannel::RecvStatus::kTimeout)
          << "cut=" << cut;
      ASSERT_EQ(::write(a->fd(), wire.data() + cut, wire.size() - cut),
                static_cast<ssize_t>(wire.size() - cut));
    }
    ASSERT_EQ(b->recv_line(line, 1000ms), md::LineChannel::RecvStatus::kLine)
        << "cut=" << cut;
    ASSERT_EQ(line, payload) << "cut=" << cut;
  }
  // Reassembly is not just byte-faithful but semantically whole: the
  // payload doubles survive bit-exactly.
  const md::Message decoded = md::decode_message(line);
  EXPECT_EQ(decoded.kind, md::MessageKind::kShardResult);
  EXPECT_EQ(mp::decode_shard_samples(decoded.samples),
            synthetic_samples(24, 32, 0.25));
}

TEST(Transport, FrameLessFloodOverflowsButLeavesTheChannelAnswerable) {
  auto [a, b] = md::socketpair_channel();
  b->set_recv_limit(64);
  const std::string flood(500, 'x');  // never terminates a line
  ASSERT_EQ(::write(a->fd(), flood.data(), flood.size()),
            static_cast<ssize_t>(flood.size()));
  std::string line;
  ASSERT_EQ(b->recv_line(line, 1000ms), md::LineChannel::RecvStatus::kOverflow);
  // The server's overflow posture (serve_campaign): answer with a protocol
  // error, then hang up — so the overflow must leave the channel usable.
  EXPECT_TRUE(b->valid());
  ASSERT_TRUE(b->send_line(md::encode_error("oversized frame")));
  ASSERT_EQ(a->recv_line(line, 1000ms), md::LineChannel::RecvStatus::kLine);
  EXPECT_EQ(md::decode_message(line).kind, md::MessageKind::kError);
}

// ----------------------------------------------------------------- protocol

TEST(Protocol, ResultPayloadDoublesSurviveTheWireBitExactly) {
  std::vector<mp::ShardSample> samples = synthetic_samples(4, 6, 0.0);
  samples[0].estimate = 0.1 + 0.2;  // famously non-representable
  samples[1].estimate = 1.0 / 3.0;
  const md::Message decoded = md::decode_message(md::encode_shard_result(
      "w", "j", 2, 4, 6, mp::JobStatus::kDone, mpe::ErrorCode::kOk,
      mp::encode_shard_samples(samples)));
  EXPECT_EQ(decoded.kind, md::MessageKind::kShardResult);
  EXPECT_EQ(decoded.shard_status, mp::JobStatus::kDone);
  const auto back = mp::decode_shard_samples(decoded.samples);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].estimate, 0.1 + 0.2);
  EXPECT_EQ(back[1].estimate, 1.0 / 3.0);
}

TEST(Protocol, ShardLeaseAndShardHeartbeatRoundTrip) {
  const mp::CampaignJob job = tiny_job("j7", 9);
  const md::Message lease = md::decode_message(md::encode_shard_lease(
      "j7", mp::campaign_job_to_json(job), 3, 24, 32, 5000, 0));
  EXPECT_EQ(lease.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(lease.shard, 3u);
  EXPECT_EQ(lease.lo, 24u);
  EXPECT_EQ(lease.hi, 32u);
  EXPECT_EQ(lease.ms, 5000u);
  const mp::CampaignJob parsed = mp::parse_campaign_job_line(lease.spec);
  EXPECT_EQ(parsed.name, "j7");
  EXPECT_EQ(parsed.seed, 9u);
  EXPECT_EQ(parsed.epsilon, job.epsilon);

  const md::Message hb = md::decode_message(md::encode_heartbeat("w0", "j7", 3));
  EXPECT_EQ(hb.kind, md::MessageKind::kHeartbeat);
  EXPECT_EQ(hb.job, "j7");
  EXPECT_EQ(hb.shard, 3u);
}

TEST(Protocol, MalformedAndMistypedMessagesThrow) {
  EXPECT_THROW((void)md::decode_message("not json"), mpe::Error);
  EXPECT_THROW((void)md::decode_message(R"({"type":"warp"})"), mpe::Error);
  EXPECT_THROW((void)md::decode_message(R"({"type":"heartbeat"})"),
               mpe::Error);  // missing worker/job
  // A heartbeat names its shard: the shard lease is the only lease.
  EXPECT_THROW((void)md::decode_message(
                   R"({"type":"heartbeat","worker":"w","job":"j"})"),
               mpe::Error);
  // Protocol v1's whole-job kinds are unknown message types.
  EXPECT_THROW(
      (void)md::decode_message(
          R"({"type":"result","worker":"w","job":"j","status":"done"})"),
      mpe::Error);
  EXPECT_THROW((void)md::decode_message(
                   R"({"type":"lease","job":"j","spec":"{}","lease_ms":5})"),
               mpe::Error);
}

// ------------------- coordinator core: one-shard jobs (synthetic time)

TEST(CoordinatorCore, GrantsInManifestOrderThenWaits) {
  md::CoordinatorCore core(whole_job_config(fresh_dir("cc_order")));
  const auto t0 = Clock::now();
  const md::Message l1 = md::decode_message(core.handle(request("w0"), t0));
  ASSERT_EQ(l1.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(l1.job, "j1");
  EXPECT_EQ(l1.lo, 0u);
  EXPECT_EQ(l1.hi, kBudget);  // the whole job
  const md::Message l2 = md::decode_message(core.handle(request("w1"), t0));
  ASSERT_EQ(l2.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(l2.job, "j2");
  EXPECT_EQ(reply_kind(core.handle(request("w2"), t0)),
            md::MessageKind::kWait);
  EXPECT_EQ(core.leases_granted(), 2u);
}

TEST(CoordinatorCore, HeartbeatRenewsALeasePastItsOriginalExpiry) {
  md::CoordinatorCore core(whole_job_config(fresh_dir("cc_renew")));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);  // leases j1 for 5s
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w0", "j1", 0), t0 + 4s)),
            md::MessageKind::kAck);
  core.tick(t0 + 8s);  // original expiry was t0+5s; renewal moved it to t0+9s
  EXPECT_TRUE(core.any_leased());
  EXPECT_EQ(core.next_expiry(), t0 + 9s);
  core.tick(t0 + 10s);  // renewed lease now expired
  EXPECT_FALSE(core.any_leased());
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kPending);
}

TEST(CoordinatorCore, ExpiredLeaseReassignsAfterBackoff) {
  md::CoordinatorCore core(whole_job_config(fresh_dir("cc_expire")));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);
  core.tick(t0 + 6s);  // w0 died: lease expired
  EXPECT_FALSE(core.any_leased());
  // Immediately after expiry the job is backoff-gated; j2 is granted
  // instead, preserving overall progress.
  const md::Message next = md::decode_message(core.handle(request("w1"), t0 + 6s));
  ASSERT_EQ(next.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(next.job, "j2");
  // Once the (jittered, <=440ms here) backoff elapses, j1 is regranted.
  const md::Message regrant =
      md::decode_message(core.handle(request("w1"), t0 + 7s));
  ASSERT_EQ(regrant.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(regrant.job, "j1");
}

TEST(CoordinatorCore, AssignmentBudgetExhaustionFailsTheJob) {
  auto config = whole_job_config(fresh_dir("cc_budget"));
  config.jobs = {tiny_job("j1", 3)};
  config.max_assignments = 2;
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  md::CoordinatorCore core(std::move(config));
  auto t = Clock::now();
  for (int round = 0; round < 2; ++round) {
    t += 10s;
    core.tick(t);  // expires the previous lease; gates it behind backoff
    t += 1s;       // past the (<=440ms jittered) reassignment backoff
    ASSERT_EQ(reply_kind(core.handle(request("w0"), t)),
              md::MessageKind::kShardLease)
        << "round " << round;
    t += 6s;  // the worker dies; lease expires
  }
  core.tick(t);
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kFailed);
  EXPECT_TRUE(core.finished());
  const auto ledger = mp::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.records.size(), 1u);
  EXPECT_EQ(ledger.records[0].status, "failed");
  EXPECT_TRUE(ledger.records[0].sealed);
  EXPECT_EQ(core.summary().failed, 1u);
}

TEST(CoordinatorCore, RestartedCoordinatorAdoptsHeartbeatedLeases) {
  const std::string dir = fresh_dir("cc_adopt");
  {
    md::CoordinatorCore first(whole_job_config(dir));
    first.handle(request("w0"), Clock::now());  // w0 is running j1
  }  // coordinator killed; worker w0 never noticed
  md::CoordinatorCore second(whole_job_config(dir));
  EXPECT_FALSE(second.any_leased());
  const auto t1 = Clock::now();
  EXPECT_EQ(reply_kind(second.handle(heartbeat("w0", "j1", 0), t1)),
            md::MessageKind::kAck);
  EXPECT_TRUE(second.any_leased());
  EXPECT_EQ(second.leases_granted(), 1u);  // the adoption
  // The adopted lease keeps j1 off the grant path for other workers.
  const md::Message other = md::decode_message(second.handle(request("w1"), t1));
  ASSERT_EQ(other.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(other.job, "j2");
}

TEST(CoordinatorCore, DoneResultsAreDedupedToOneLedgerRecord) {
  auto config = whole_job_config(fresh_dir("cc_dedupe"));
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  md::CoordinatorCore core(std::move(config));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);
  const md::Message result = whole_job_done("w0", "j1");
  EXPECT_EQ(reply_kind(core.handle(result, t0 + 1s)), md::MessageKind::kAck);
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kDone);
  // The worker never saw the ack and re-sends; at-least-once delivery must
  // not create a second ledger record.
  EXPECT_EQ(reply_kind(core.handle(result, t0 + 2s)), md::MessageKind::kAck);
  const auto ledger = mp::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.records.size(), 2u);  // one shard record, one job record
  EXPECT_TRUE(ledger.records[0].is_shard);
  EXPECT_EQ(ledger.records[1].job, "j1");
  EXPECT_EQ(ledger.records[1].estimate, 5.0);
  EXPECT_TRUE(mp::audit_ledger(ledger).ok());
}

TEST(CoordinatorCore, StaleHolderIsRevokedButItsDoneResultCounts) {
  auto config = whole_job_config(fresh_dir("cc_stale"));
  config.straggler_after = 500ms;
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  md::CoordinatorCore core(std::move(config));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);
  core.tick(t0 + 6s);                   // w0 presumed dead
  core.handle(request("w1"), t0 + 7s);  // j1 regranted to w1
  core.handle(request("w2"), t0 + 7s);  // j2
  // w1 straggles: a speculative copy fills j1's second holder slot.
  const md::Message spec =
      md::decode_message(core.handle(request("w3"), t0 + 8s));
  ASSERT_EQ(spec.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(spec.job, "j1");
  // w0 was only partitioned, not dead: its heartbeat is refused...
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w0", "j1", 0), t0 + 8s)),
            md::MessageKind::kRevoke);
  // ...but its completed, deterministic result is accepted...
  EXPECT_EQ(reply_kind(core.handle(whole_job_done("w0", "j1"), t0 + 8s)),
            md::MessageKind::kAck);
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kDone);
  // ...and w1's identical result later dedupes silently.
  EXPECT_EQ(reply_kind(core.handle(whole_job_done("w1", "j1"), t0 + 9s)),
            md::MessageKind::kAck);
  const auto ledger = mp::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.records.size(), 2u);  // one shard record, one job record
  EXPECT_TRUE(mp::audit_ledger(ledger).ok());
}

TEST(CoordinatorCore, LedgerDoneJobsAreSkippedOnConstruction) {
  auto config = whole_job_config(fresh_dir("cc_resume"));
  {
    md::CoordinatorCore first(whole_job_config(config.state_dir));
    first.handle(request("w0"), Clock::now());
    first.handle(whole_job_done("w0", "j1"), Clock::now());
  }
  md::CoordinatorCore second(std::move(config));
  EXPECT_EQ(second.phase("j1"), md::JobPhase::kDone);
  const auto summary = second.summary();
  EXPECT_EQ(summary.skipped, 1u);
  // Only j2 is still owed work.
  const md::Message lease =
      md::decode_message(second.handle(request("w1"), Clock::now()));
  ASSERT_EQ(lease.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(lease.job, "j2");
}

TEST(CoordinatorCore, CorruptLedgerRecordsAreQuarantinedAndJobsRerun) {
  auto config = whole_job_config(fresh_dir("cc_corrupt"));
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  {
    md::CoordinatorCore first(whole_job_config(config.state_dir));
    first.handle(request("w0"), Clock::now());
    first.handle(whole_job_done("w0", "j1"), Clock::now());
  }
  // Bit rot lands on both of j1's records: its shard record and its done
  // record (an intact shard record alone would re-assemble the job).
  std::string text = mpe::util::read_file(ledger_path);
  const std::size_t split = text.find('\n');
  ASSERT_NE(split, std::string::npos);
  text[split / 2] ^= 0x20;
  text[split + (text.size() - split) / 2] ^= 0x20;
  mpe::util::atomic_write_file(ledger_path, text);

  md::CoordinatorCore second(std::move(config));
  EXPECT_EQ(second.phase("j1"), md::JobPhase::kPending);  // must re-run
  EXPECT_EQ(second.shards_done(), 0u);
  EXPECT_EQ(second.summary().quarantined, 2u);
  EXPECT_TRUE(mpe::util::file_exists(ledger_path + ".quarantine"));
}

TEST(CoordinatorCore, DrainStopsGrantsButServesInFlightLeases) {
  md::CoordinatorCore core(whole_job_config(fresh_dir("cc_drain")));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);
  core.begin_drain();
  EXPECT_EQ(reply_kind(core.handle(request("w1"), t0)),
            md::MessageKind::kDrain);
  // The in-flight lease still heartbeats and completes normally.
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w0", "j1", 0), t0 + 1s)),
            md::MessageKind::kAck);
  EXPECT_EQ(reply_kind(core.handle(whole_job_done("w0", "j1"), t0 + 2s)),
            md::MessageKind::kAck);
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kDone);
  EXPECT_FALSE(core.finished());  // j2 never ran: drain cut it
  EXPECT_FALSE(core.any_leased());
}

TEST(CoordinatorCore, StoppedResultReleasesTheLeaseForImmediateRegrant) {
  md::CoordinatorCore core(whole_job_config(fresh_dir("cc_release")));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);
  EXPECT_EQ(reply_kind(core.handle(
                shard_report("w0", "j1", 0, 0, kBudget,
                             mp::JobStatus::kStopped),
                t0 + 1s)),
            md::MessageKind::kAck);
  EXPECT_FALSE(core.any_leased());
  // Graceful hand-back carries no crash signal: no backoff gate.
  const md::Message regrant =
      md::decode_message(core.handle(request("w1"), t0 + 1s));
  ASSERT_EQ(regrant.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(regrant.job, "j1");
}

TEST(CoordinatorCore, ZeroShardSizeIsRejected) {
  auto config = two_job_config(fresh_dir("cc_zero_shard"));
  EXPECT_EQ(config.shard_size, mp::kDefaultShardSize);
  config.shard_size = 0;
  try {
    md::CoordinatorCore core(std::move(config));
    FAIL() << "shard_size 0 was accepted";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
  }
}

// ----------------- coordinator core: multi-shard jobs (synthetic time)

TEST(CoordinatorCore, ShardLeasesGoOutAscendingWithinAJob) {
  md::CoordinatorCore core(sharded_config(fresh_dir("cs_order")));
  const auto t0 = Clock::now();
  const md::Message l1 = md::decode_message(core.handle(request("w0"), t0));
  ASSERT_EQ(l1.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(l1.job, "j1");
  EXPECT_EQ(l1.shard, 0u);
  EXPECT_EQ(l1.lo, 0u);
  EXPECT_EQ(l1.hi, 8u);
  EXPECT_EQ(l1.ms, 5000u);
  EXPECT_EQ(mp::parse_campaign_job_line(l1.spec).name, "j1");
  const md::Message l2 = md::decode_message(core.handle(request("w1"), t0));
  ASSERT_EQ(l2.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(l2.job, "j1");  // one job is drained of shards before the next
  EXPECT_EQ(l2.shard, 1u);
  EXPECT_EQ(l2.lo, 8u);
  EXPECT_EQ(core.leases_granted(), 2u);
}

TEST(CoordinatorCore, DoneShardsAssembleIntoExactlyOneJobRecord) {
  auto config = sharded_config(fresh_dir("cs_assemble"));
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  md::CoordinatorCore core(std::move(config));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);  // j1 shard 0
  // Identical estimates converge at the 3rd accepted sample, so shard 0
  // already covers j1's stopping point: assembly is terminal.
  EXPECT_EQ(reply_kind(core.handle(shard_done("w0", "j1", 0, 0, 8), t0 + 1s)),
            md::MessageKind::kAck);
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kDone);
  EXPECT_EQ(core.shards_done(), 1u);
  // A speculating loser reporting late is acked without a second append.
  EXPECT_EQ(reply_kind(core.handle(shard_done("w9", "j1", 0, 0, 8), t0 + 2s)),
            md::MessageKind::kAck);
  const auto ledger = mp::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.records.size(), 2u);
  EXPECT_TRUE(ledger.records[0].is_shard);
  EXPECT_EQ(ledger.records[1].job, "j1");
  EXPECT_EQ(ledger.records[1].status, "done");
  EXPECT_EQ(ledger.records[1].estimate, 5.0);
  EXPECT_TRUE(mp::audit_ledger(ledger).ok());
}

TEST(CoordinatorCore, StragglerGetsASpeculativeSecondHolderFirstResultWins) {
  auto config = sharded_config(fresh_dir("cs_spec"));
  config.jobs = {tiny_job("j1", 3)};
  config.shard_size = 200;  // one shard covering the whole attempt budget
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  md::CoordinatorCore core(std::move(config));
  const std::uint64_t hi = mp::job_attempt_budget(tiny_job("j1", 3));
  const auto t0 = Clock::now();
  ASSERT_EQ(reply_kind(core.handle(request("w0"), t0)),
            md::MessageKind::kShardLease);
  // w0 is alive (heartbeating at shard granularity) but slow.
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w0", "j1", 0), t0 + 4s)),
            md::MessageKind::kAck);
  // Too early for speculation (straggler_after defaults to 2x lease = 10s).
  EXPECT_EQ(reply_kind(core.handle(request("w1"), t0 + 6s)),
            md::MessageKind::kWait);
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w0", "j1", 0), t0 + 8s)),
            md::MessageKind::kAck);
  // A worker never races itself...
  EXPECT_EQ(reply_kind(core.handle(request("w0"), t0 + 11s)),
            md::MessageKind::kWait);
  // ...but past the straggler threshold another worker gets a speculative
  // copy of the oldest in-flight shard.
  const md::Message spec =
      md::decode_message(core.handle(request("w1"), t0 + 11s));
  ASSERT_EQ(spec.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(spec.shard, 0u);
  // Speculation is bounded at two holders: a third is refused.
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w9", "j1", 0), t0 + 11s)),
            md::MessageKind::kRevoke);
  // First valid result wins and completes the job...
  EXPECT_EQ(reply_kind(core.handle(shard_done("w1", "j1", 0, 0, hi), t0 + 12s)),
            md::MessageKind::kAck);
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kDone);
  // ...and the loser's duplicate is swallowed by the exactly-once ledger.
  EXPECT_EQ(reply_kind(core.handle(shard_done("w0", "j1", 0, 0, hi), t0 + 13s)),
            md::MessageKind::kAck);
  const auto ledger = mp::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.records.size(), 2u);  // one shard record, one job record
  EXPECT_TRUE(mp::audit_ledger(ledger).ok());
}

TEST(CoordinatorCore, ExpiredShardIsRedispatchedUntilItsBudgetFailsTheJob) {
  auto config = sharded_config(fresh_dir("cs_budget"));
  config.jobs = {tiny_job("j1", 3)};
  config.shard_size = 200;
  config.max_assignments = 2;
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  md::CoordinatorCore core(std::move(config));
  const auto t0 = Clock::now();
  ASSERT_EQ(reply_kind(core.handle(request("w0"), t0)),
            md::MessageKind::kShardLease);
  core.tick(t0 + 6s);  // w0 died: every holder of the shard expired
  // Immediately after expiry the shard is backoff-gated...
  EXPECT_EQ(reply_kind(core.handle(request("w1"), t0 + 6s)),
            md::MessageKind::kWait);
  // ...then regranted once the (<=440ms jittered) backoff elapses.
  const md::Message regrant =
      md::decode_message(core.handle(request("w1"), t0 + 7s));
  ASSERT_EQ(regrant.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(regrant.shard, 0u);
  // The second holder dies too: the shard's budget is spent and the job
  // fails terminally so the campaign can finish.
  core.tick(t0 + 13s);
  EXPECT_EQ(core.phase("j1"), md::JobPhase::kFailed);
  EXPECT_TRUE(core.finished());
  const auto ledger = mp::read_ledger_file(ledger_path);
  ASSERT_EQ(ledger.records.size(), 1u);
  EXPECT_EQ(ledger.records[0].status, "failed");
  EXPECT_TRUE(ledger.records[0].sealed);
}

TEST(CoordinatorCore, ShardHeartbeatRenewalKeepsTheShardLeased) {
  md::CoordinatorCore core(sharded_config(fresh_dir("cs_renew")));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);  // j1 shard 0, expiry t0+5s
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w0", "j1", 0), t0 + 4s)),
            md::MessageKind::kAck);
  core.tick(t0 + 8s);  // past original expiry; the renewal moved it to t0+9s
  // Shard 0 must still be held: the next grant skips to shard 1.
  const md::Message next =
      md::decode_message(core.handle(request("w1"), t0 + 8s));
  ASSERT_EQ(next.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(next.shard, 1u);
  // Once the renewed lease lapses the shard returns to the pool.
  core.tick(t0 + 10s);
  const md::Message regrant =
      md::decode_message(core.handle(request("w2"), t0 + 11s));
  ASSERT_EQ(regrant.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(regrant.shard, 0u);
}

TEST(CoordinatorCore, RestartRebuildsDoneShardsFromTheLedgerAlone) {
  const std::string dir = fresh_dir("cs_restart");
  {
    md::CoordinatorCore first(sharded_config(dir));
    const auto t0 = Clock::now();
    first.handle(request("w0"), t0);  // j1 shard 0
    // A wide spread keeps j1 unconverged: shard 0 completes but the job
    // stays pending, owing shards.
    ASSERT_EQ(reply_kind(first.handle(
                  shard_done("w0", "j1", 0, 0, 8, /*spread=*/10.0), t0 + 1s)),
              md::MessageKind::kAck);
    EXPECT_EQ(first.phase("j1"), md::JobPhase::kPending);
    EXPECT_EQ(first.shards_done(), 1u);
  }  // coordinator killed mid-campaign
  md::CoordinatorCore second(sharded_config(dir));
  EXPECT_EQ(second.shards_done(), 1u);  // rebuilt from shard records
  EXPECT_EQ(second.phase("j1"), md::JobPhase::kPending);
  const auto t1 = Clock::now();
  // Work resumes at the first shard still owed, not at zero.
  const md::Message next =
      md::decode_message(second.handle(request("w1"), t1));
  ASSERT_EQ(next.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(next.job, "j1");
  EXPECT_EQ(next.shard, 1u);
  EXPECT_EQ(next.lo, 8u);
  // A holder from before the restart is adopted at shard granularity by
  // its own heartbeat...
  EXPECT_EQ(reply_kind(second.handle(heartbeat("w5", "j1", 2), t1)),
            md::MessageKind::kAck);
  // ...which keeps that shard off the grant path.
  const md::Message after =
      md::decode_message(second.handle(request("w6"), t1));
  ASSERT_EQ(after.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(after.shard, 3u);
}

TEST(CoordinatorCore, HelloNegotiatesTheSupportedProtocolRange) {
  md::CoordinatorCore core(sharded_config(fresh_dir("cs_hello")));
  md::Message hello;
  hello.kind = md::MessageKind::kHello;
  hello.worker = "w0";
  // Hello is the single version gate: only the current revision passes.
  for (const std::uint64_t proto : {std::uint64_t{0}, std::uint64_t{1},
                                    md::kProtocolVersion + 1}) {
    hello.proto = proto;
    const md::Message reply =
        md::decode_message(core.handle(hello, Clock::now()));
    EXPECT_EQ(reply.kind, md::MessageKind::kError) << "proto " << proto;
    EXPECT_EQ(reply.detail, "protocol version mismatch");
  }
  hello.proto = md::kProtocolVersion;
  EXPECT_EQ(reply_kind(core.handle(hello, Clock::now())),
            md::MessageKind::kAck);
}

// ---------------------- coordinator core: persistent / fleet-executor mode

TEST(CoordinatorCore, PersistentModeWaitsWhenIdleAndAcceptsAddedJobs) {
  // The fleet executor embeds the coordinator with a dynamic job set: it
  // starts empty, jobs arrive via add_job, and "nothing to do right now"
  // must read as wait — drain would send the whole worker fleet home.
  auto config = two_job_config(fresh_dir("cc_persist"));
  config.jobs.clear();
  config.persistent = true;
  md::CoordinatorCore core(std::move(config));
  const auto t0 = Clock::now();
  EXPECT_TRUE(core.finished());  // vacuously: no jobs yet
  EXPECT_EQ(reply_kind(core.handle(request("w0"), t0)), md::MessageKind::kWait);

  core.add_job(tiny_job("late", 7));
  const md::Message lease = md::decode_message(core.handle(request("w0"), t0));
  ASSERT_EQ(lease.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(lease.job, "late");
  EXPECT_EQ(reply_kind(core.handle(
                shard_done("w0", "late", lease.shard, lease.lo, lease.hi),
                t0 + 1s)),
            md::MessageKind::kAck);

  // Terminal outcomes surface exactly once through take_completions.
  const auto completions = core.take_completions();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].name, "late");
  EXPECT_EQ(completions[0].status, mp::JobStatus::kDone);
  EXPECT_EQ(completions[0].result.estimate, 5.0);
  EXPECT_TRUE(core.take_completions().empty());

  // Finished again — and still waiting, never draining.
  EXPECT_EQ(reply_kind(core.handle(request("w1"), t0 + 2s)),
            md::MessageKind::kWait);
  // Names are unique among live jobs ("late" retired when it was handed out).
  core.add_job(tiny_job("next", 8));
  EXPECT_THROW(core.add_job(tiny_job("next", 9)), mpe::Error);  // dup name
}

std::size_t ledger_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

TEST(CoordinatorCore, PersistentModeRetiresJobsOnceHandedOut) {
  // A persistent coordinator holds state for live jobs only: once
  // take_completions() hands a job out, its spec, leases and shard samples
  // are gone, whatever number of jobs it has run.
  auto config = sharded_config(fresh_dir("cc_retire"));
  config.jobs.clear();
  config.persistent = true;
  mpe::util::MetricRegistry registry;
  registry.enable(true);
  config.metrics = &registry;
  const std::string ledger_path = config.state_dir + "/campaign.jsonl";
  md::CoordinatorCore core(std::move(config));
  const auto t0 = Clock::now();
  constexpr int kJobs = 1000;
  for (int i = 0; i < kJobs; ++i) {
    const std::string name = "r" + std::to_string(i);
    core.add_job(tiny_job(name, 100 + static_cast<std::uint64_t>(i)));
    EXPECT_EQ(registry.snapshot().value("mpe_coord_live_jobs"), 1.0);
    const md::Message lease =
        md::decode_message(core.handle(request("w0"), t0));
    ASSERT_EQ(lease.kind, md::MessageKind::kShardLease);
    ASSERT_EQ(lease.job, name);
    // Identical estimates: shard 0 alone is terminal.
    ASSERT_EQ(reply_kind(core.handle(shard_done("w0", name, 0, 0, 8), t0)),
              md::MessageKind::kAck);
    const auto done = core.take_completions();
    ASSERT_EQ(done.size(), 1u);
    ASSERT_EQ(done[0].status, mp::JobStatus::kDone);
  }
  EXPECT_EQ(core.live_jobs(), 0u);
  EXPECT_EQ(registry.snapshot().value("mpe_coord_live_jobs"), 0.0);
  EXPECT_FALSE(core.any_leased());
  EXPECT_EQ(core.next_expiry(), Clock::time_point::max());
  EXPECT_THROW(core.phase("r7"), mpe::Error);  // unknown now
  const std::size_t lines = ledger_lines(ledger_path);
  EXPECT_EQ(lines, 2u * kJobs);  // one shard + one job record each

  // Late messages for a retired job get the unknown-job replies: revoke
  // for a heartbeat, and for a duplicate shard result a reply that
  // deliver_until_acked settles on — with no ledger line appended.
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w1", "r7", 0), t0 + 1s)),
            md::MessageKind::kRevoke);
  EXPECT_EQ(reply_kind(core.handle(shard_done("w1", "r7", 0, 0, 8), t0 + 1s)),
            md::MessageKind::kError);
  EXPECT_EQ(ledger_lines(ledger_path), lines);
  EXPECT_TRUE(core.take_completions().empty());
  EXPECT_EQ(core.live_jobs(), 0u);
}

TEST(CoordinatorCore, AbandonRevokesTheLeaseAndRecordsStopped) {
  md::CoordinatorCore core(two_job_config(fresh_dir("cc_abandon")));
  const auto t0 = Clock::now();
  core.handle(request("w0"), t0);  // w0 runs j1's shard 0
  EXPECT_FALSE(core.abandon("nope"));
  EXPECT_TRUE(core.abandon("j1"));
  // The holder learns on its next heartbeat that the job is gone.
  EXPECT_EQ(reply_kind(core.handle(heartbeat("w0", "j1", 0), t0 + 1s)),
            md::MessageKind::kRevoke);
  const auto completions = core.take_completions();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].name, "j1");
  EXPECT_EQ(completions[0].status, mp::JobStatus::kStopped);
  EXPECT_EQ(completions[0].error, mpe::ErrorCode::kCancelled);
  EXPECT_EQ(completions[0].attempts, 0u);  // shards count the grants
  EXPECT_FALSE(core.abandon("j1"));  // already terminal
  // The grant path moves on to j2.
  const md::Message next = md::decode_message(core.handle(request("w1"), t0));
  ASSERT_EQ(next.kind, md::MessageKind::kShardLease);
  EXPECT_EQ(next.job, "j2");
}

// ------------------------------------------------ parked worker requests

/// A raw protocol-v2 worker on a real Unix socket, driven line by line.
struct RawWorker {
  std::unique_ptr<md::LineChannel> channel;
  std::string id;

  RawWorker(const std::string& sock, std::string worker)
      : channel(md::connect_unix(sock)), id(std::move(worker)) {}

  void send(const std::string& line) { ASSERT_TRUE(channel->send_line(line)); }

  /// The next reply within `timeout`, or nullopt when none came.
  std::optional<md::Message> reply(std::chrono::milliseconds timeout) {
    std::string line;
    if (channel->recv_line(line, timeout) !=
        md::LineChannel::RecvStatus::kLine) {
      return std::nullopt;
    }
    return md::decode_message(line);
  }

  /// The next reply's kind (kError when none came).
  md::MessageKind reply_kind(std::chrono::milliseconds timeout) {
    const auto msg = reply(timeout);
    return msg ? msg->kind : md::MessageKind::kError;
  }
};

md::CoordinatorConfig one_shard_config(const std::string& dir) {
  auto config = two_job_config(dir);
  config.jobs.clear();
  config.persistent = true;
  config.shard_size = 200;  // covers tiny_job's whole budget: one shard
  config.lease = 1000ms;
  config.reassign.jitter = 0.0;  // the backoff gate is exactly 100 ms
  return config;
}

TEST(WorkerHubParking, IdleRequestIsHeldUntilWorkOrDrainArrives) {
  const std::string dir = fresh_dir("hub_park");
  md::CoordinatorCore core(one_shard_config(dir));
  md::UnixListener listener(dir + ".sock");
  md::WorkerHub hub(core, {&listener});
  const auto t0 = Clock::now();

  RawWorker w(dir + ".sock", "w0");
  ASSERT_NE(w.channel, nullptr);
  w.send(md::encode_hello(w.id));
  hub.service(t0);
  ASSERT_EQ(w.reply_kind(1000ms), md::MessageKind::kAck);

  // No jobs: the request is parked, not answered `wait`.
  w.send(md::encode_request(w.id));
  hub.service(t0);
  EXPECT_EQ(hub.parked(), 1u);
  EXPECT_FALSE(w.reply(50ms));
  hub.service(t0 + 100ms);  // before the park deadline: still held
  EXPECT_FALSE(w.reply(50ms));
  EXPECT_EQ(hub.next_deadline(), t0 + 250ms);  // the core's wait period

  // A job arrives: the parked request is granted on the next pass.
  core.add_job(tiny_job("j1", 3));
  hub.service(t0 + 100ms);
  const auto lease = w.reply(1000ms);
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->kind, md::MessageKind::kShardLease);
  EXPECT_EQ(lease->job, "j1");
  EXPECT_EQ(hub.parked(), 0u);

  // The only shard is out: the next request parks again, and the drain
  // answers it at once.
  w.send(md::encode_request(w.id));
  hub.service(t0 + 200ms);
  EXPECT_EQ(hub.parked(), 1u);
  EXPECT_FALSE(w.reply(50ms));
  core.begin_drain();
  hub.service(t0 + 200ms);
  const auto drain = w.reply(1000ms);
  ASSERT_TRUE(drain);
  EXPECT_EQ(drain->kind, md::MessageKind::kDrain);
  EXPECT_EQ(hub.parked(), 0u);
}

TEST(WorkerHubParking, LingerHoldingFullGraceDrainsALateDialer) {
  // A worker whose first dial lands after the campaign ended, with no other
  // worker connected, still hears drain while the hub holds its grace —
  // instead of redialing a vanished socket until its retries run out.
  const std::string dir = fresh_dir("hub_linger");
  md::CoordinatorCore core(one_shard_config(dir));
  md::UnixListener listener(dir + ".sock");
  md::WorkerHub hub(core, {&listener});
  core.begin_drain();
  std::thread lingering([&] { hub.linger(1500ms, true); });
  std::this_thread::sleep_for(100ms);  // lingering with no connection
  RawWorker late(dir + ".sock", "late");
  late.send(md::encode_hello(late.id));
  EXPECT_EQ(late.reply_kind(1000ms), md::MessageKind::kAck);
  late.send(md::encode_request(late.id));
  EXPECT_EQ(late.reply_kind(1000ms), md::MessageKind::kDrain);
  lingering.join();
}

TEST(WorkerHubParking, BackoffGatedShardIsGrantedNoEarlierThanItsGate) {
  const std::string dir = fresh_dir("hub_gate");
  md::CoordinatorCore core(one_shard_config(dir));
  md::UnixListener listener(dir + ".sock");
  md::WorkerHub hub(core, {&listener});
  const auto t0 = Clock::now();
  RawWorker a(dir + ".sock", "a");
  RawWorker b(dir + ".sock", "b");
  for (RawWorker* w : {&a, &b}) {
    w->send(md::encode_hello(w->id));
    hub.service(t0);
    ASSERT_EQ(w->reply_kind(1000ms), md::MessageKind::kAck);
  }
  core.add_job(tiny_job("j1", 3));
  a.send(md::encode_request(a.id));
  hub.service(t0);
  ASSERT_EQ(a.reply_kind(1000ms), md::MessageKind::kShardLease);
  b.send(md::encode_request(b.id));
  hub.service(t0);
  EXPECT_FALSE(b.reply(50ms));  // parked behind a's lease

  // a goes silent. At expiry b's park period has long passed: it hears the
  // core's `wait` of that moment — the shard is back in the pool but gated
  // 100 ms behind the expiry.
  const auto expiry = t0 + 1000ms;
  hub.service(expiry);
  const auto wait = b.reply(1000ms);
  ASSERT_TRUE(wait);
  ASSERT_EQ(wait->kind, md::MessageKind::kWait);
  EXPECT_EQ(wait->ms, 100u);

  // b asks again at once; the request parks until exactly the gate.
  b.send(md::encode_request(b.id));
  hub.service(expiry);
  EXPECT_EQ(hub.next_deadline(), expiry + 100ms);
  hub.service(expiry + 99ms);
  EXPECT_FALSE(b.reply(50ms));
  hub.service(expiry + 100ms);
  const auto lease = b.reply(1000ms);
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->kind, md::MessageKind::kShardLease);
  EXPECT_EQ(lease->job, "j1");
}

// ------------------------------------------------- end-to-end over a socket

TEST(DistEndToEnd, FleetMergesByteIdenticalToSingleProcessCampaign) {
  // Single-process golden run.
  const std::string solo_dir = fresh_dir("e2e_solo");
  std::vector<mp::CampaignJob> solo_jobs = {tiny_job("a", 3), tiny_job("b", 4),
                                            tiny_job("c", 5)};
  mp::CampaignOptions solo_options;
  solo_options.state_dir = solo_dir;
  const auto solo = mp::run_campaign(solo_jobs, solo_options);
  ASSERT_EQ(solo.done, 3u);
  const std::string golden =
      mp::merge_ledger(mp::read_ledger_file(solo_dir + "/campaign.jsonl"));

  // Distributed run: one coordinator thread, two worker threads.
  const std::string dist_dir = fresh_dir("e2e_dist");
  const std::string sock = dist_dir + ".sock";
  md::CoordinatorConfig config;
  config.jobs = {tiny_job("a", 3), tiny_job("b", 4), tiny_job("c", 5)};
  config.state_dir = dist_dir;
  config.lease = 2000ms;
  md::CoordinatorCore core(std::move(config));
  md::CoordinatorServerOptions server;
  server.socket_path = sock;
  mp::CampaignResult dist_result;
  std::thread coordinator(
      [&] { dist_result = md::serve_campaign(core, server); });

  auto worker_main = [&](const std::string& id) {
    md::WorkerConfig worker;
    worker.socket_path = sock;
    worker.worker_id = id;
    worker.state_dir = dist_dir;
    worker.heartbeat = 100ms;
    return md::run_worker(worker);
  };
  md::WorkerSummary s0, s1;
  std::thread w0([&] { s0 = worker_main("w0"); });
  std::thread w1([&] { s1 = worker_main("w1"); });
  coordinator.join();
  w0.join();
  w1.join();

  EXPECT_EQ(dist_result.done, 3u);
  EXPECT_EQ(dist_result.failed, 0u);
  EXPECT_GE(s0.shards + s1.shards, 3u);  // every job took at least one
  EXPECT_TRUE(s0.drained);
  EXPECT_TRUE(s1.drained);

  const auto ledger = mp::read_ledger_file(dist_dir + "/campaign.jsonl");
  const auto audit = mp::audit_ledger(ledger);
  EXPECT_TRUE(audit.ok()) << (audit.violations.empty()
                                  ? ""
                                  : audit.violations.front());
  // The tentpole guarantee: scheduling nondeterminism (which worker ran
  // what, in which order) must not leak into the merged results.
  EXPECT_EQ(mp::merge_ledger(ledger), golden);
}

TEST(DistEndToEnd, ShardedTcpFleetMergesByteIdenticalToSingleProcess) {
  // Single-process golden run.
  const std::string solo_dir = fresh_dir("e2e_tcp_solo");
  std::vector<mp::CampaignJob> solo_jobs = {tiny_job("a", 3), tiny_job("b", 4)};
  mp::CampaignOptions solo_options;
  solo_options.state_dir = solo_dir;
  const auto solo = mp::run_campaign(solo_jobs, solo_options);
  ASSERT_EQ(solo.done, 2u);
  const std::string golden =
      mp::merge_ledger(mp::read_ledger_file(solo_dir + "/campaign.jsonl"));

  // Distributed run over real TCP (the multi-host seam), jobs split into
  // shard leases that two workers compute and the coordinator assembles.
  const std::string dist_dir = fresh_dir("e2e_tcp_dist");
  md::CoordinatorConfig config;
  config.jobs = {tiny_job("a", 3), tiny_job("b", 4)};
  config.state_dir = dist_dir;
  config.lease = 2000ms;
  config.shard_size = 4;  // force multi-shard assembly over the wire
  md::CoordinatorCore core(std::move(config));
  md::TcpListener listener(0);  // kernel-assigned port: parallel-test safe
  md::CoordinatorServerOptions server;
  mp::CampaignResult dist_result;
  std::thread coordinator(
      [&] { dist_result = md::serve_campaign(core, listener, server); });

  auto worker_main = [&](const std::string& id) {
    md::WorkerConfig worker;
    worker.tcp_port = listener.port();
    worker.worker_id = id;
    worker.state_dir = dist_dir;
    worker.heartbeat = 100ms;
    return md::run_worker(worker);
  };
  md::WorkerSummary s0, s1;
  std::thread w0([&] { s0 = worker_main("w0"); });
  std::thread w1([&] { s1 = worker_main("w1"); });
  coordinator.join();
  w0.join();
  w1.join();

  EXPECT_EQ(dist_result.done, 2u);
  EXPECT_EQ(dist_result.failed, 0u);
  EXPECT_TRUE(s0.drained);
  EXPECT_TRUE(s1.drained);
  // Shard results crossed the wire and were assembled.
  EXPECT_GT(core.shards_done(), 0u);
  EXPECT_GT(s0.shards + s1.shards, 0u);

  const auto ledger = mp::read_ledger_file(dist_dir + "/campaign.jsonl");
  const auto audit = mp::audit_ledger(ledger);
  EXPECT_TRUE(audit.ok()) << (audit.violations.empty()
                                  ? ""
                                  : audit.violations.front());
  // Which worker computed which wave-index range must not leak into the
  // merged results.
  EXPECT_EQ(mp::merge_ledger(ledger), golden);
}

TEST(DistEndToEnd, DisjointWorkerStateDirsStayByteIdentical) {
  // Cross-host fleets share nothing but the protocol: each worker resolves
  // its shard checkpoints under its OWN state directory (a path under the
  // coordinator's dir would silently collide — or worse, not exist — on
  // another host). The merged ledger must still be byte-identical to a
  // single-process campaign.
  const std::string solo_dir = fresh_dir("e2e_disjoint_solo");
  std::vector<mp::CampaignJob> solo_jobs = {tiny_job("a", 3), tiny_job("b", 4)};
  mp::CampaignOptions solo_options;
  solo_options.state_dir = solo_dir;
  const auto solo = mp::run_campaign(solo_jobs, solo_options);
  ASSERT_EQ(solo.done, 2u);
  const std::string golden =
      mp::merge_ledger(mp::read_ledger_file(solo_dir + "/campaign.jsonl"));

  const std::string coord_dir = fresh_dir("e2e_disjoint_coord");
  md::CoordinatorConfig config;
  config.jobs = {tiny_job("a", 3), tiny_job("b", 4)};
  config.state_dir = coord_dir;
  config.lease = 2000ms;
  config.shard_size = 4;
  md::CoordinatorCore core(std::move(config));
  md::TcpListener listener(0);
  md::CoordinatorServerOptions server;
  mp::CampaignResult dist_result;
  std::thread coordinator(
      [&] { dist_result = md::serve_campaign(core, listener, server); });

  auto worker_main = [&](const std::string& id) {
    md::WorkerConfig worker;
    worker.tcp_port = listener.port();
    worker.worker_id = id;
    worker.state_dir = fresh_dir("e2e_disjoint_" + id);  // per-host dir
    worker.heartbeat = 100ms;
    return md::run_worker(worker);
  };
  md::WorkerSummary s0, s1;
  std::thread w0([&] { s0 = worker_main("w0"); });
  std::thread w1([&] { s1 = worker_main("w1"); });
  coordinator.join();
  w0.join();
  w1.join();

  EXPECT_EQ(dist_result.done, 2u);
  EXPECT_EQ(dist_result.failed, 0u);
  EXPECT_TRUE(s0.drained);
  EXPECT_TRUE(s1.drained);
  EXPECT_GT(core.shards_done(), 0u);
  const auto ledger = mp::read_ledger_file(coord_dir + "/campaign.jsonl");
  EXPECT_TRUE(mp::audit_ledger(ledger).ok());
  EXPECT_EQ(mp::merge_ledger(ledger), golden);
}

TEST(DistEndToEnd, WorkerGivesUpCleanlyWhenNoCoordinatorExists) {
  md::WorkerConfig worker;
  worker.socket_path = fresh_dir("e2e_nobody") + ".sock";
  worker.worker_id = "w0";
  worker.state_dir = fresh_dir("e2e_nobody_state");
  worker.connect_retry.max_attempts = 3;
  worker.connect_retry.initial_backoff = 10ms;
  worker.connect_retry.max_backoff = 20ms;
  const auto summary = md::run_worker(worker);
  EXPECT_EQ(summary.exit_error, mpe::ErrorCode::kIo);
  EXPECT_EQ(summary.leases, 0u);
}

TEST(DistEndToEnd, RefusedHelloEndsTheWorkerAtOnce) {
  // A coordinator that refuses the hello (here: a raw listener standing in
  // for one that speaks another protocol revision) will refuse every
  // redial too. The worker must stop on the first refusal, not spend its
  // whole connect_retry budget (40 dials, over a minute) on it.
  const std::string dir = fresh_dir("e2e_refused");
  md::UnixListener listener(dir + ".sock");
  std::thread coordinator([&] {
    auto ch = listener.accept(5000ms);
    ASSERT_NE(ch, nullptr);
    std::string line;
    ASSERT_EQ(ch->recv_line(line, 5000ms), md::LineChannel::RecvStatus::kLine);
    EXPECT_EQ(md::decode_message(line).kind, md::MessageKind::kHello);
    ASSERT_TRUE(ch->send_line(md::encode_error("protocol version mismatch")));
    // Hold the channel until the worker hangs up.
    EXPECT_EQ(ch->recv_line(line, 5000ms),
              md::LineChannel::RecvStatus::kClosed);
  });

  md::WorkerConfig worker;
  worker.socket_path = dir + ".sock";
  worker.worker_id = "w0";
  worker.state_dir = fresh_dir("e2e_refused_state");
  const auto t0 = std::chrono::steady_clock::now();
  const auto summary = md::run_worker(worker);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  coordinator.join();

  EXPECT_EQ(summary.exit_error, mpe::ErrorCode::kBadData);
  EXPECT_EQ(summary.error_detail, "protocol version mismatch");
  EXPECT_EQ(summary.leases, 0u);
  EXPECT_LT(elapsed, 5000ms);  // within one reply timeout
  EXPECT_EQ(listener.accept(0ms), nullptr);  // and no redial
}

}  // namespace
