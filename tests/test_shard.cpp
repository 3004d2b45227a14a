// maxpower/shard: wave-index partition math, the shard-sample JSON codec
// (bit-exact doubles, non-finite estimates), checkpointed shard execution,
// and the headline guarantee — computing a job as shards on "different
// workers" and folding them back through assemble_job yields a result
// byte-identical to the single-process run, for every shard size.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "evt/weibull_mle.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/circuit_cache.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/shard.hpp"
#include "sim/technology.hpp"
#include "util/atomic_file.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace {

namespace mp = mpe::maxpower;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

mp::CampaignJob tiny_job(const std::string& name, std::uint64_t seed,
                         double epsilon = 0.2) {
  mp::CampaignJob job;
  job.name = name;
  job.circuit = "c432";
  job.seed = seed;
  job.epsilon = epsilon;
  job.confidence = 0.8;
  job.max_hyper_samples = 12;
  return job;
}

/// Computes every shard of `job` under `shard_size` and returns the full
/// sample sequence, shard by shard (what a fleet would deliver).
std::vector<mp::ShardSample> compute_all_shards(const mp::CampaignJob& job,
                                                std::uint64_t shard_size,
                                                const std::string& state_dir) {
  const std::uint64_t attempts = mp::job_attempt_budget(job);
  mp::ShardRunOptions options;
  options.state_dir = state_dir;
  mp::CircuitCache cache(1);
  std::vector<mp::ShardSample> all;
  for (std::size_t k = 0; k < mp::shard_count(attempts, shard_size); ++k) {
    const mp::ShardRange range = mp::shard_range(attempts, shard_size, k);
    const mp::ShardOutcome out =
        mp::run_campaign_shard(job, k, range.lo, range.hi, options, cache);
    EXPECT_EQ(out.status, mp::JobStatus::kDone);
    all.insert(all.end(), out.samples.begin(), out.samples.end());
  }
  return all;
}

// ---------------------------------------------------------------- partition

TEST(ShardPartition, CoversTheAttemptBudgetExactlyOnce) {
  const mp::CampaignJob job = tiny_job("p", 1);
  const std::uint64_t attempts = mp::job_attempt_budget(job);
  EXPECT_EQ(attempts, job.max_hyper_samples +
                          mp::EstimatorOptions{}.max_redraws);
  for (const std::uint64_t size :
       {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{8}, attempts,
        std::uint64_t{1000}}) {
    const std::size_t n = mp::shard_count(attempts, size);
    std::uint64_t next = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const mp::ShardRange r = mp::shard_range(attempts, size, k);
      EXPECT_EQ(r.lo, next) << "size " << size << " shard " << k;
      EXPECT_LT(r.lo, r.hi);
      next = r.hi;
    }
    EXPECT_EQ(next, attempts) << "size " << size;
  }
  // shard_size 0 means whole-job: one shard spanning everything.
  EXPECT_EQ(mp::shard_count(attempts, 0), 1u);
  EXPECT_EQ(mp::shard_range(attempts, 0, 0).hi, attempts);
  EXPECT_THROW((void)mp::shard_range(attempts, 8, 1000), mpe::Error);
}

// -------------------------------------------------------------------- codec

TEST(ShardCodec, RoundTripsBitExactlyIncludingNonFiniteEstimates) {
  std::vector<mp::ShardSample> samples(3);
  samples[0].index = 7;
  samples[0].estimate = 0.1 + 0.2;  // famously non-representable
  samples[0].units = 4250;
  samples[0].valid = true;
  samples[0].mle_converged = true;
  samples[1].index = 8;
  samples[1].estimate = std::nan("");
  samples[1].nonfinite_units = 3;
  samples[1].degenerate = true;
  samples[2].index = 9;
  samples[2].estimate = -std::numeric_limits<double>::infinity();
  samples[2].degenerate = true;
  samples[2].constant_sample = true;

  const auto decoded =
      mp::decode_shard_samples(mp::encode_shard_samples(samples));
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], samples[0]);  // bit-exact double round trip
  EXPECT_TRUE(std::isnan(decoded[1].estimate));
  EXPECT_EQ(decoded[1].nonfinite_units, 3u);
  EXPECT_TRUE(decoded[1].degenerate);
  EXPECT_EQ(decoded[2], samples[2]);

  // Flag bit 2 (a removed PWM flag) is never written and ignored on read.
  const auto old = mp::decode_shard_samples(R"([{"i":1,"est":2,"u":3,"f":5}])");
  ASSERT_EQ(old.size(), 1u);
  EXPECT_TRUE(old[0].valid);
  EXPECT_FALSE(old[0].degenerate);
  EXPECT_EQ(mp::encode_shard_samples(old).find("\"f\":5"), std::string::npos);

  EXPECT_THROW((void)mp::decode_shard_samples("not json"), mpe::Error);
  EXPECT_THROW((void)mp::decode_shard_samples(R"({"i":1})"), mpe::Error);
  EXPECT_THROW((void)mp::decode_shard_samples(R"([{"i":1}])"), mpe::Error);
}

// ------------------------------------------------- compute + assemble == run

TEST(ShardAssembly, EveryShardSizeReproducesTheSingleProcessRunExactly) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    mp::CampaignJob job = tiny_job("solo", seed);
    mp::JobRunOptions solo_options;
    solo_options.state_dir = fresh_dir("shard_solo");
    mpe::Rng jitter(1);
    mp::CircuitCache cache(1);
    const mp::CampaignJobOutcome solo =
        mp::run_campaign_job(job, solo_options, jitter, cache);
    ASSERT_EQ(solo.status, mp::JobStatus::kDone);

    for (const std::uint64_t size : {1ull, 3ull, 8ull, 100ull}) {
      const mp::CampaignJob sharded_job = tiny_job("solo", seed);
      const std::string dir = fresh_dir("shard_fleet");
      const auto all = compute_all_shards(sharded_job, size, dir);
      const mp::AssembledJob assembled = mp::assemble_job(sharded_job, all);
      ASSERT_TRUE(assembled.terminal) << "size " << size;
      // Ledger-visible payload must be byte-identical to the solo run.
      EXPECT_EQ(assembled.result.estimate, solo.result.estimate)
          << "seed " << seed << " size " << size;
      EXPECT_EQ(assembled.result.hyper_samples, solo.result.hyper_samples);
      EXPECT_EQ(assembled.result.units_used, solo.result.units_used);
      EXPECT_EQ(assembled.result.converged, solo.result.converged);
      const mp::CampaignJobOutcome outcome =
          mp::finished_job_outcome(sharded_job, assembled.result);
      EXPECT_EQ(outcome.status, mp::JobStatus::kDone);
    }
  }
}

TEST(ShardAssembly, ShortPrefixOfAConvergingJobIsTerminalEarly) {
  // With identical conditions the job converges well inside its budget, so
  // the contiguous prefix becomes terminal before every shard is in — the
  // coordinator never waits for (or leases) work past the stopping point.
  const mp::CampaignJob job = tiny_job("early", 3);
  const std::string dir = fresh_dir("shard_early");
  const auto all = compute_all_shards(job, 8, dir);
  const mp::AssembledJob full = mp::assemble_job(job, all);
  ASSERT_TRUE(full.terminal);
  ASSERT_TRUE(full.result.converged);

  std::vector<mp::ShardSample> first_shard(all.begin(), all.begin() + 8);
  const mp::AssembledJob early = mp::assemble_job(job, first_shard);
  if (full.result.hyper_samples <= 8) {
    EXPECT_TRUE(early.terminal);
    EXPECT_EQ(early.result.estimate, full.result.estimate);
  }
  // A one-sample prefix cannot have converged (min_hyper_samples > 1).
  std::vector<mp::ShardSample> one(all.begin(), all.begin() + 1);
  EXPECT_FALSE(mp::assemble_job(job, one).terminal);
}

TEST(ShardAssembly, NonContiguousPrefixThrows) {
  const mp::CampaignJob job = tiny_job("gap", 3);
  const std::string dir = fresh_dir("shard_gap");
  auto all = compute_all_shards(job, 8, dir);
  all.erase(all.begin() + 2);  // hole at index 2
  EXPECT_THROW((void)mp::assemble_job(job, all), mpe::Error);
}

// -------------------------------------------------------------- checkpoints

TEST(ShardCheckpoint, TruncatedCheckpointResumesToTheSameSamples) {
  const mp::CampaignJob job = tiny_job("ckpt", 5);
  const std::string dir = fresh_dir("shard_ckpt");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  mp::CircuitCache cache(1);
  const mp::ShardOutcome first =
      mp::run_campaign_shard(job, 0, 0, 8, options, cache);
  ASSERT_EQ(first.status, mp::JobStatus::kDone);
  ASSERT_EQ(first.samples.size(), 8u);

  // kill -9 mid-flush: keep the header + first two sample lines, tearing
  // the third in half. The CRC catches the torn line; the contiguous
  // prefix survives and the rest recomputes deterministically.
  const std::string ckpt = dir + "/ckpt.shard0.ckpt";
  std::string text = mpe::util::read_file(ckpt);
  std::size_t keep = 0;
  for (int lines = 0; lines < 3; ++lines) {
    keep = text.find('\n', keep) + 1;
  }
  mpe::util::atomic_write_file(ckpt, text.substr(0, keep + 10));

  const mp::ShardOutcome second =
      mp::run_campaign_shard(job, 0, 0, 8, options, cache);
  ASSERT_EQ(second.status, mp::JobStatus::kDone);
  EXPECT_EQ(second.samples, first.samples);
}

TEST(ShardCheckpoint, ForeignSpecHeaderIsDiscardedNotResumed) {
  const mp::CampaignJob job = tiny_job("spec", 5);
  const std::string dir = fresh_dir("shard_spec");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  mp::CircuitCache cache(1);
  const mp::ShardOutcome first =
      mp::run_campaign_shard(job, 0, 0, 8, options, cache);
  ASSERT_EQ(first.status, mp::JobStatus::kDone);

  // Same job name, different seed: the sealed header pins the spec, so the
  // stale checkpoint must be ignored (resuming it would corrupt results).
  mp::CampaignJob reseeded = tiny_job("spec", 6);
  const mp::ShardOutcome other =
      mp::run_campaign_shard(reseeded, 0, 0, 8, options, cache);
  ASSERT_EQ(other.status, mp::JobStatus::kDone);
  EXPECT_NE(other.samples[0].estimate, first.samples[0].estimate);
  // And rerunning the reseeded job now resumes its own rewritten file.
  const mp::ShardOutcome again =
      mp::run_campaign_shard(reseeded, 0, 0, 8, options, cache);
  EXPECT_EQ(again.samples, other.samples);
}

TEST(ShardCheckpoint, EarlierFitSolverHeaderIsDiscardedNotResumed) {
  const mp::CampaignJob job = tiny_job("solver", 5);
  const std::string dir = fresh_dir("shard_solver");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  mp::CircuitCache cache(1);
  const mp::ShardOutcome fresh =
      mp::run_campaign_shard(job, 0, 0, 8, options, cache);
  ASSERT_EQ(fresh.status, mp::JobStatus::kDone);
  ASSERT_EQ(fresh.samples.size(), 8u);

  // The same shard as the Weibull fit's solver revision 1 wrote it: the
  // header pins the same job, shard, range and spec, and the sealed sample
  // records are valid but carry the other solver's estimates.
  const std::string ckpt = dir + "/solver.shard0.ckpt";
  std::istringstream in(mpe::util::read_file(ckpt));
  std::string line;
  std::getline(in, line);  // the current header
  mpe::util::JsonFields header;
  header.add("schema", "mpe.shard")
      .add("v", std::uint64_t{1})
      .add("job", job.name)
      .add("shard", std::uint64_t{0})
      .add("lo", std::uint64_t{0})
      .add("hi", std::uint64_t{8})
      .add("spec", mp::campaign_job_to_json(job))
      .add("mle_solver", std::uint64_t{1});
  std::string written = mp::seal_ledger_line(header.object()) + "\n";
  std::vector<double> recorded;
  while (std::getline(in, line)) {
    const mpe::util::JsonValue v = mpe::util::parse_json(line);
    const double est = v.find("est")->as_number() * (1.0 + 1e-6);
    recorded.push_back(est);
    mpe::util::JsonFields f;
    f.add("i", static_cast<std::uint64_t>(v.find("i")->as_number()))
        .add("est", est)
        .add("u", static_cast<std::uint64_t>(v.find("u")->as_number()))
        .add("f", static_cast<std::uint64_t>(v.find("f")->as_number()));
    written += mp::seal_ledger_line(f.object()) + "\n";
  }
  ASSERT_EQ(recorded.size(), 8u);
  mpe::util::atomic_write_file(ckpt, written);

  // The earlier solver's records are recomputed, never mixed into the job.
  const mp::ShardOutcome resumed =
      mp::run_campaign_shard(job, 0, 0, 8, options, cache);
  ASSERT_EQ(resumed.status, mp::JobStatus::kDone);
  EXPECT_EQ(resumed.samples, fresh.samples);
  EXPECT_NE(resumed.samples[0].estimate, recorded[0]);
  const std::string current =
      "\"mle_solver\":" + std::to_string(mpe::evt::kWeibullMleSolverRevision);
  EXPECT_NE(mpe::util::read_file(ckpt).find(current), std::string::npos);
}

TEST(ShardRun, RunControlStopKeepsPartialProgress) {
  const mp::CampaignJob job = tiny_job("stop", 5);
  const std::string dir = fresh_dir("shard_stop");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  mp::CircuitCache cache(1);
  const auto cancel = mpe::util::CancellationToken::create();
  options.control.cancel = cancel;
  cancel.request_stop();
  const mp::ShardOutcome stopped =
      mp::run_campaign_shard(job, 0, 0, 8, options, cache);
  EXPECT_EQ(stopped.status, mp::JobStatus::kStopped);
  EXPECT_EQ(stopped.error, mpe::ErrorCode::kCancelled);

  mp::ShardRunOptions clean;
  clean.state_dir = dir;
  const mp::ShardOutcome resumed =
      mp::run_campaign_shard(job, 0, 0, 8, clean, cache);
  EXPECT_EQ(resumed.status, mp::JobStatus::kDone);
  EXPECT_EQ(resumed.samples.size(), 8u);
}

TEST(ShardRun, OneCacheParsesAndCompilesOncePerWorker) {
  // A worker runs every shard through one cache: the second shard of a
  // zero-delay job neither re-parses the circuit nor recompiles its tape,
  // and its samples match shards run through fresh caches bit for bit.
  mp::CampaignJob job = tiny_job("zd", 5);
  job.delay = "zero";
  mp::ShardRunOptions shared_options;
  shared_options.state_dir = fresh_dir("shard_one_cache");
  mp::CircuitCache cache(4);
  const mp::ShardOutcome a =
      mp::run_campaign_shard(job, 0, 0, 8, shared_options, cache);
  const auto program =
      cache.lookup(job)->program(mpe::sim::Technology{});
  const mp::ShardOutcome b =
      mp::run_campaign_shard(job, 1, 8, 16, shared_options, cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.lookup(job)->program(mpe::sim::Technology{}), program);

  mp::ShardRunOptions fresh_options;
  fresh_options.state_dir = fresh_dir("shard_fresh_caches");
  mp::CircuitCache fresh_a(1);
  mp::CircuitCache fresh_b(1);
  ASSERT_EQ(a.status, mp::JobStatus::kDone);
  ASSERT_EQ(b.status, mp::JobStatus::kDone);
  EXPECT_EQ(mp::run_campaign_shard(job, 0, 0, 8, fresh_options, fresh_a)
                .samples,
            a.samples);
  EXPECT_EQ(mp::run_campaign_shard(job, 1, 8, 16, fresh_options, fresh_b)
                .samples,
            b.samples);
}

// ------------------------------------------------------------ ledger record

TEST(ShardRecord, RoundTripsThroughTheLedgerSealed) {
  const mp::CampaignJob job = tiny_job("rec", 3);
  const std::string dir = fresh_dir("shard_rec");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  mp::CircuitCache cache(1);
  const mp::ShardOutcome out =
      mp::run_campaign_shard(job, 1, 8, 16, options, cache);
  ASSERT_EQ(out.status, mp::JobStatus::kDone);

  const std::string line =
      mp::shard_record_line("rec", 1, 8, 16, "w0", out.samples);
  EXPECT_TRUE(mp::verify_ledger_line(line));
  const auto ledger = mp::read_ledger_text(line + "\n");
  ASSERT_EQ(ledger.records.size(), 1u);
  const mp::LedgerRecord& rec = ledger.records[0];
  EXPECT_TRUE(rec.is_shard);
  EXPECT_EQ(rec.shard, 1u);
  EXPECT_EQ(rec.lo, 8u);
  EXPECT_EQ(rec.hi, 16u);
  EXPECT_EQ(mp::decode_shard_samples(rec.samples), out.samples);
  // A done shard must never read as a done job.
  EXPECT_TRUE(ledger.final_status().empty());
}

}  // namespace
