// Campaign runner: manifest parsing, the JSONL ledger (skip-done /
// re-run-failed semantics), per-job checkpointing, and the
// fault-injection-meets-retry story — a transiently faulting job must
// succeed on its retry attempt because the population (and its fault
// schedule counter) is built once per job.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <system_error>

#include "maxpower/campaign.hpp"
#include "stats/weibull.hpp"
#include "util/atomic_file.hpp"
#include "util/jsonl.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "vectors/fault_injection.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;
using namespace std::chrono_literals;

mpe::vec::FinitePopulation weibull_population(std::size_t size,
                                              std::uint64_t seed,
                                              const std::string& desc) {
  const mpe::stats::ReversedWeibull g(3.0, 1.0, 10.0);
  mpe::Rng rng(seed);
  std::vector<double> vals(size);
  for (auto& v : vals) v = g.sample(rng);
  return mpe::vec::FinitePopulation(std::move(vals), desc);
}

std::string fresh_state_dir(const std::string& name) {
  // A stale ledger or checkpoint from a previous test-binary run would make
  // jobs skip or short-circuit; every test starts from a clean directory.
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::size_t ledger_lines(const std::string& dir) {
  const std::string path = dir + "/campaign.jsonl";
  if (!mpe::util::file_exists(path)) return 0;
  std::istringstream in(mpe::util::read_file(path));
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++n;
  }
  return n;
}

mp::CampaignOptions fast_options(const std::string& dir) {
  mp::CampaignOptions opt;
  opt.state_dir = dir;
  opt.retry.initial_backoff = 1ms;
  opt.retry.max_backoff = 2ms;
  return opt;
}

// --- Manifest parsing -------------------------------------------------------

TEST(CampaignManifest, ParsesJobsWithDefaults) {
  const auto jobs = mp::parse_campaign_manifest(
      "# comment line\n"
      "\n"
      "{\"job\":\"a\",\"circuit\":\"c432\"}\n"
      "{\"job\":\"b\",\"circuit\":\"c880\",\"seed\":9,\"epsilon\":0.08,"
      "\"confidence\":0.95,\"tprob\":0.3,\"max_hyper\":50}\n"
      "{\"job\":\"c\",\"bench\":\"x.bench\",\"activity\":0.4}\n");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].name, "a");
  EXPECT_EQ(jobs[0].circuit, "c432");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[0].epsilon, 0.05);
  EXPECT_EQ(jobs[1].seed, 9u);
  EXPECT_EQ(jobs[1].epsilon, 0.08);
  EXPECT_EQ(jobs[1].confidence, 0.95);
  EXPECT_EQ(jobs[1].max_hyper_samples, 50u);
  EXPECT_EQ(jobs[2].bench, "x.bench");
  EXPECT_EQ(jobs[2].activity, 0.4);
}

TEST(CampaignManifest, ParsesAndValidatesStrategyFields) {
  const auto jobs = mp::parse_campaign_manifest(
      "{\"job\":\"a\",\"circuit\":\"c432\",\"stop\":\"bootstrap\"}\n"
      "{\"job\":\"b\",\"circuit\":\"c432\"}\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].stop, "bootstrap");
  EXPECT_TRUE(jobs[1].stop.empty());
  try {
    mp::parse_campaign_manifest("{\"job\":\"a\",\"stop\":\"student\"}\n");
    FAIL() << "unknown stopping rule accepted";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kBadData);
  }
}

TEST(CampaignManifest, RemovedFitterFieldIsBadData) {
  // The removed "fitter" field fails like any unknown one, whatever its
  // value.
  for (const char* value : {"mle", "pwm", "gev"}) {
    try {
      mp::parse_campaign_manifest(
          std::string("{\"job\":\"a\",\"fitter\":\"") + value + "\"}\n");
      FAIL() << "manifest field \"fitter\" accepted";
    } catch (const mpe::Error& e) {
      EXPECT_EQ(e.code(), mpe::ErrorCode::kBadData);
      EXPECT_NE(e.context().find("fitter"), std::string::npos);
    }
  }
}

TEST(CampaignManifest, RejectsDuplicateAndInvalidNames) {
  try {
    mp::parse_campaign_manifest(
        "{\"job\":\"a\"}\n{\"job\":\"a\"}\n");
    FAIL() << "duplicate name accepted";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kBadData);
  }
  for (const char* manifest :
       {"{\"circuit\":\"c432\"}\n", "{\"job\":\"../evil\"}\n",
        "{\"job\":\"a b\"}\n", "{\"job\":\"..\"}\n"}) {
    SCOPED_TRACE(manifest);
    EXPECT_THROW(mp::parse_campaign_manifest(manifest), mpe::Error);
  }
}

TEST(CampaignManifest, RejectsUnknownFieldsAndBadJson) {
  try {
    mp::parse_campaign_manifest("{\"job\":\"a\",\"epsilno\":0.1}\n");
    FAIL() << "typo field accepted";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kBadData);
    EXPECT_NE(e.context().find("epsilno"), std::string::npos);
  }
  try {
    mp::parse_campaign_manifest("{\"job\": \"a\",,}\n");
    FAIL() << "bad json accepted";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kParse);
  }
}

// --- Running ----------------------------------------------------------------

TEST(CampaignRun, CompletesJobsAndLedgerSkipsThemNextTime) {
  const std::string dir = fresh_state_dir("campaign_basic");
  auto pop_a = weibull_population(20000, 101, "pop-a");
  auto pop_b = weibull_population(20000, 202, "pop-b");

  std::vector<mp::CampaignJob> jobs(2);
  jobs[0].name = "job-a";
  jobs[0].population = &pop_a;
  jobs[1].name = "job-b";
  jobs[1].population = &pop_b;
  jobs[1].seed = 5;

  const auto first = mp::run_campaign(jobs, fast_options(dir));
  EXPECT_EQ(first.done, 2u);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(first.skipped, 0u);
  ASSERT_EQ(first.jobs.size(), 2u);
  EXPECT_EQ(first.jobs[0].status, mp::JobStatus::kDone);
  EXPECT_TRUE(first.jobs[0].result.converged);
  EXPECT_GT(first.jobs[0].result.estimate, 0.0);
  EXPECT_EQ(ledger_lines(dir), 2u);
  // Per-job checkpoints persist (complete; future invocations short-circuit).
  EXPECT_TRUE(mpe::util::file_exists(dir + "/job-a.ckpt"));
  EXPECT_TRUE(mpe::util::file_exists(dir + "/job-b.ckpt"));

  const auto second = mp::run_campaign(jobs, fast_options(dir));
  EXPECT_EQ(second.done, 0u);
  EXPECT_EQ(second.skipped, 2u);
  EXPECT_EQ(second.jobs[0].status, mp::JobStatus::kSkipped);
  EXPECT_EQ(ledger_lines(dir), 2u) << "skipped jobs must not append lines";
}

TEST(CampaignRun, ReportLinesCarryTheSchema) {
  const std::string dir = fresh_state_dir("campaign_schema");
  auto pop = weibull_population(20000, 303, "pop-schema");
  std::vector<mp::CampaignJob> jobs(1);
  jobs[0].name = "only";
  jobs[0].population = &pop;
  (void)mp::run_campaign(jobs, fast_options(dir));

  std::istringstream in(mpe::util::read_file(dir + "/campaign.jsonl"));
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto v = mpe::util::parse_json(line);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("schema")->as_string(), "mpe.campaign");
  EXPECT_EQ(v.find("v")->as_number(), 1.0);
  EXPECT_EQ(v.find("job")->as_string(), "only");
  EXPECT_EQ(v.find("status")->as_string(), "done");
  EXPECT_TRUE(v.has("estimate"));
  EXPECT_TRUE(v.has("attempts"));
  EXPECT_TRUE(v.find("converged")->as_bool());
}

TEST(CampaignRun, TransientThrowFaultSucceedsOnRetry) {
  const std::string dir = fresh_state_dir("campaign_transient");
  auto inner = weibull_population(20000, 404, "pop-faulty");
  // One draw throws kFaultInjected early in the first attempt, then never
  // again (the period is far beyond any draw this job makes). The campaign
  // builds the population once per job, so the schedule counter is past the
  // fault when the retry runs — the definition of a transient.
  mpe::vec::FaultSpec spec;
  spec.kind = mpe::vec::FaultKind::kThrow;
  spec.period = 1u << 30;
  spec.phase = 17;
  mpe::vec::FaultInjectingPopulation pop(inner, {spec});

  std::vector<mp::CampaignJob> jobs(1);
  jobs[0].name = "flaky";
  jobs[0].population = &pop;

  const auto result = mp::run_campaign(jobs, fast_options(dir));
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].status, mp::JobStatus::kDone);
  EXPECT_EQ(result.jobs[0].attempts, 2u);
  EXPECT_TRUE(result.jobs[0].result.converged);
  EXPECT_EQ(pop.injected(), 1u);
}

TEST(CampaignRun, PersistentBadDataFailsWithoutRetry) {
  const std::string dir = fresh_state_dir("campaign_fatal");
  auto inner = weibull_population(20000, 505, "pop-nan");
  mpe::vec::FaultSpec spec;
  spec.kind = mpe::vec::FaultKind::kNan;
  spec.period = 1;  // every draw is NaN: no usable hyper-sample, ever
  mpe::vec::FaultInjectingPopulation pop(inner, {spec});

  std::vector<mp::CampaignJob> jobs(1);
  jobs[0].name = "hopeless";
  jobs[0].population = &pop;

  const auto result = mp::run_campaign(jobs, fast_options(dir));
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].status, mp::JobStatus::kFailed);
  EXPECT_EQ(result.jobs[0].attempts, 1u) << "kBadData must not be retried";
  EXPECT_EQ(result.jobs[0].error, mpe::ErrorCode::kBadData);
  EXPECT_EQ(result.failed, 1u);
  // The failure is in the ledger; a re-invocation tries the job again
  // (failed != done), which is the recover-after-operator-fix flow.
  EXPECT_EQ(ledger_lines(dir), 1u);
  const auto again = mp::run_campaign(jobs, fast_options(dir));
  EXPECT_EQ(again.jobs[0].status, mp::JobStatus::kFailed);
  EXPECT_EQ(ledger_lines(dir), 2u);
}

TEST(CampaignRun, CancellationBeforeStartRunsNothing) {
  const std::string dir = fresh_state_dir("campaign_cancel");
  auto pop = weibull_population(20000, 606, "pop-cancel");
  std::vector<mp::CampaignJob> jobs(1);
  jobs[0].name = "never-ran";
  jobs[0].population = &pop;

  auto opt = fast_options(dir);
  opt.control.cancel = mpe::util::CancellationToken::create();
  opt.control.cancel.request_stop();
  const auto result = mp::run_campaign(jobs, opt);
  EXPECT_EQ(result.stopped, mpe::util::StopCause::kCancelled);
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(ledger_lines(dir), 0u);
}

TEST(CampaignRun, TornFinalLedgerLineIsTolerated) {
  const std::string dir = fresh_state_dir("campaign_torn");
  auto pop = weibull_population(20000, 707, "pop-torn");
  std::vector<mp::CampaignJob> jobs(1);
  jobs[0].name = "torn";
  jobs[0].population = &pop;
  (void)mp::run_campaign(jobs, fast_options(dir));

  // Simulate a crash mid-append: chop the (only) line in half. The job no
  // longer reads as done, so the next invocation re-runs it — resuming from
  // its complete checkpoint, which costs nothing.
  const std::string path = dir + "/campaign.jsonl";
  std::string ledger = mpe::util::read_file(path);
  mpe::util::atomic_write_file(path, ledger.substr(0, ledger.size() / 2));
  const auto again = mp::run_campaign(jobs, fast_options(dir));
  EXPECT_EQ(again.jobs[0].status, mp::JobStatus::kDone);
  EXPECT_TRUE(again.jobs[0].result.converged);
}

TEST(CampaignRun, CorruptMidLedgerRecordIsQuarantinedAndTheJobReruns) {
  const std::string dir = fresh_state_dir("campaign_bitrot");
  auto pop_a = weibull_population(20000, 808, "pop-rot-a");
  auto pop_b = weibull_population(20000, 809, "pop-rot-b");
  std::vector<mp::CampaignJob> jobs(2);
  jobs[0].name = "rot-a";
  jobs[0].population = &pop_a;
  jobs[1].name = "rot-b";
  jobs[1].population = &pop_b;
  (void)mp::run_campaign(jobs, fast_options(dir));

  // Bit rot lands in the MIDDLE of the file — the first job's record, not a
  // torn tail. The per-record CRC catches it; the record is quarantined and
  // only that job re-runs (from its complete checkpoint: zero extra draws).
  const std::string path = dir + "/campaign.jsonl";
  std::string ledger = mpe::util::read_file(path);
  ledger[ledger.find("rot-a") + 2] ^= 0x04;
  mpe::util::atomic_write_file(path, ledger);

  const auto again = mp::run_campaign(jobs, fast_options(dir));
  EXPECT_EQ(again.quarantined, 1u);
  EXPECT_EQ(again.done, 1u) << "damaged record's job must re-run";
  EXPECT_EQ(again.skipped, 1u) << "intact record must still skip";
  EXPECT_TRUE(mpe::util::file_exists(path + ".quarantine"));
  // The re-run healed the ledger: a third invocation skips everything.
  const auto third = mp::run_campaign(jobs, fast_options(dir));
  EXPECT_EQ(third.skipped, 2u);
}

TEST(CampaignRun, LegacyCrclessLedgerStillSkipsDoneJobs) {
  const std::string dir = fresh_state_dir("campaign_legacy");
  auto pop = weibull_population(20000, 910, "pop-legacy");
  std::vector<mp::CampaignJob> jobs(1);
  jobs[0].name = "old-job";
  jobs[0].population = &pop;
  // A ledger written before the CRC seal existed: bare JSON records.
  std::filesystem::create_directories(dir);
  mpe::util::atomic_write_file(
      dir + "/campaign.jsonl",
      "{\"schema\":\"mpe.campaign\",\"v\":1,\"job\":\"old-job\","
      "\"status\":\"done\",\"attempts\":1,\"estimate\":5.0,"
      "\"hyper_samples\":8,\"units\":2000,\"converged\":true}\n");

  const auto result = mp::run_campaign(jobs, fast_options(dir));
  EXPECT_EQ(result.skipped, 1u) << "legacy records must keep their meaning";
  EXPECT_EQ(result.quarantined, 0u);
}

TEST(CampaignRun, JobsOnOneCircuitParseItOnce) {
  // One campaign reads its circuits through one cache: three jobs on one
  // preset and seed build the netlist once.
  const std::string dir = fresh_state_dir("campaign_one_parse");
  std::vector<mp::CampaignJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "c432-" + std::to_string(i);
    jobs[i].circuit = "c432";
    jobs[i].seed = 3;
    jobs[i].epsilon = 0.3;
    jobs[i].confidence = 0.8;
    jobs[i].max_hyper_samples = 6;
  }
  auto& registry = mpe::util::MetricRegistry::global();
  const bool was_enabled = registry.enabled();
  registry.enable(true);
  const double before =
      registry.snapshot().value("mpe_server_cache_misses_total");
  const auto result = mp::run_campaign(jobs, fast_options(dir));
  const double after =
      registry.snapshot().value("mpe_server_cache_misses_total");
  registry.enable(was_enabled);
  EXPECT_EQ(result.jobs.size(), 3u);
  EXPECT_EQ(after - before, 1.0);
}

TEST(CampaignRun, MissingVerilogFileFailsAsIo) {
  const std::string dir = fresh_state_dir("campaign_missing_v");
  std::vector<mp::CampaignJob> jobs(1);
  jobs[0].name = "gone";
  jobs[0].verilog = dir + "/absent.v";
  const auto result = mp::run_campaign(jobs, fast_options(dir));
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].status, mp::JobStatus::kFailed);
  EXPECT_EQ(result.jobs[0].error, mpe::ErrorCode::kIo);
}

TEST(CampaignRun, MissingStateDirIsPrecondition) {
  std::vector<mp::CampaignJob> jobs;
  mp::CampaignOptions opt;  // state_dir unset
  EXPECT_THROW(mp::run_campaign(jobs, opt), mpe::Error);
}

}  // namespace
