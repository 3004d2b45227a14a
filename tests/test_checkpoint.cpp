// Durable run state (maxpower/checkpoint.hpp): byte-format round-trips,
// parser robustness against truncation and bit flips, and the headline
// guarantee — a resumed estimation run is bit-identical to an uninterrupted
// one, on both estimator paths, at any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <span>
#include <string>

#include "gen/presets.hpp"
#include "maxpower/checkpoint.hpp"
#include "maxpower/estimator.hpp"
#include "sim/cpu_dispatch.hpp"
#include "sim/power_eval.hpp"
#include "stats/weibull.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "vectors/fault_injection.hpp"
#include "vectors/generators.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;

mpe::vec::FinitePopulation weibull_population(std::size_t size,
                                              std::uint64_t seed,
                                              double alpha = 3.0,
                                              double mu = 10.0) {
  const mpe::stats::ReversedWeibull g(alpha, 1.0, mu);
  mpe::Rng rng(seed);
  std::vector<double> vals(size);
  for (auto& v : vals) v = g.sample(rng);
  return mpe::vec::FinitePopulation(std::move(vals), "synthetic weibull");
}

void expect_identical(const mp::EstimationResult& a,
                      const mp::EstimationResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.ci.lower, b.ci.lower);
  EXPECT_EQ(a.ci.upper, b.ci.upper);
  EXPECT_EQ(a.relative_error_bound, b.relative_error_bound);
  EXPECT_EQ(a.units_used, b.units_used);
  EXPECT_EQ(a.hyper_samples, b.hyper_samples);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  ASSERT_EQ(a.hyper_values.size(), b.hyper_values.size());
  for (std::size_t i = 0; i < a.hyper_values.size(); ++i) {
    EXPECT_EQ(a.hyper_values[i], b.hyper_values[i]) << "hyper value " << i;
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

mp::RunCheckpoint sample_checkpoint() {
  mp::RunCheckpoint c;
  c.fingerprint = 0x1234567890abcdefull;
  c.base_seed = 42;
  c.parallel_path = true;
  c.complete = false;
  c.next_index = 7;
  c.rng.s = {1, 2, 3, 4};
  c.rng.spare_normal = 0.5;
  c.rng.has_spare = true;
  c.accepted_indices = {0, 2, 6};
  c.result.estimate = 9.75;
  c.result.ci.lower = 9.5;
  c.result.ci.upper = 10.0;
  c.result.ci.confidence = 0.9;
  c.result.ci.center = 9.75;
  c.result.ci.half_width = 0.25;
  c.result.relative_error_bound = 0.0256;
  c.result.units_used = 900;
  c.result.hyper_samples = 3;
  c.result.converged = false;
  c.result.hyper_values = {9.7, 9.75, 9.8};
  c.result.degenerate_fits = 1;
  c.result.stop_reason = mp::StopReason::kMaxHyperSamples;
  c.result.diagnostics.degenerate_fits = 1;
  c.result.diagnostics.constant_samples = 0;
  c.result.diagnostics.discarded_hyper_samples = 4;
  c.result.diagnostics.nonfinite_units = 5;
  c.result.diagnostics.small_population = true;
  c.result.diagnostics.note(mpe::Severity::kWarning, mpe::ErrorCode::kBadData,
                            "a structured record", "key=value");
  return c;
}

TEST(CheckpointFormat, EncodeDecodeRoundTrip) {
  const auto original = sample_checkpoint();
  const std::string bytes = mp::encode_checkpoint(original);
  const auto decoded = mp::decode_checkpoint(bytes);

  EXPECT_EQ(decoded.fingerprint, original.fingerprint);
  EXPECT_EQ(decoded.base_seed, original.base_seed);
  EXPECT_EQ(decoded.parallel_path, original.parallel_path);
  EXPECT_EQ(decoded.complete, original.complete);
  EXPECT_EQ(decoded.next_index, original.next_index);
  EXPECT_EQ(decoded.rng.s, original.rng.s);
  EXPECT_EQ(decoded.rng.spare_normal, original.rng.spare_normal);
  EXPECT_EQ(decoded.rng.has_spare, original.rng.has_spare);
  EXPECT_EQ(decoded.accepted_indices, original.accepted_indices);
  EXPECT_EQ(decoded.result.estimate, original.result.estimate);
  EXPECT_EQ(decoded.result.ci.lower, original.result.ci.lower);
  EXPECT_EQ(decoded.result.ci.upper, original.result.ci.upper);
  EXPECT_EQ(decoded.result.hyper_values, original.result.hyper_values);
  EXPECT_EQ(decoded.result.stop_reason, original.result.stop_reason);
  EXPECT_EQ(decoded.result.diagnostics.discarded_hyper_samples,
            original.result.diagnostics.discarded_hyper_samples);
  EXPECT_EQ(decoded.result.diagnostics.small_population,
            original.result.diagnostics.small_population);
  ASSERT_EQ(decoded.result.diagnostics.records.size(), 1u);
  EXPECT_EQ(decoded.result.diagnostics.records[0].message,
            "a structured record");
  EXPECT_EQ(decoded.result.diagnostics.records[0].code,
            mpe::ErrorCode::kBadData);
}

TEST(CheckpointFormat, SaveLoadFileRoundTrip) {
  const std::string path = temp_path("ckpt_roundtrip.ckpt");
  const auto original = sample_checkpoint();
  mp::save_checkpoint_file(path, original);
  const auto loaded = mp::load_checkpoint_file(path);
  EXPECT_EQ(loaded.fingerprint, original.fingerprint);
  EXPECT_EQ(loaded.result.hyper_values, original.result.hyper_values);
  std::remove(path.c_str());
}

// The fuzz half of the robustness contract: a checkpoint truncated at EVERY
// byte offset must produce a clean typed diagnostic — never a crash, hang,
// huge allocation, or a silently wrong resume.
TEST(CheckpointFuzz, EveryTruncationThrowsTypedError) {
  const std::string bytes = mp::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      mp::decode_checkpoint(bytes.substr(0, len));
      FAIL() << "truncation at " << len << " bytes decoded successfully";
    } catch (const mpe::Error& e) {
      EXPECT_TRUE(e.code() == mpe::ErrorCode::kCorruptData ||
                  e.code() == mpe::ErrorCode::kParse)
          << "len=" << len << " code=" << mpe::to_string(e.code());
    }
  }
}

// Every single-bit flip lands inside the CRC-protected span (or in the CRC
// itself), so none may decode successfully.
TEST(CheckpointFuzz, EverySingleBitFlipRejected) {
  const std::string bytes = mp::encode_checkpoint(sample_checkpoint());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      try {
        mp::decode_checkpoint(mutated);
        FAIL() << "bit flip at byte " << byte << " bit " << bit
               << " decoded successfully";
      } catch (const mpe::Error& e) {
        EXPECT_TRUE(e.code() == mpe::ErrorCode::kCorruptData ||
                    e.code() == mpe::ErrorCode::kParse)
            << "byte=" << byte << " bit=" << bit
            << " code=" << mpe::to_string(e.code());
      }
    }
  }
}

TEST(CheckpointFuzz, GarbageIsParseOrCorruptError) {
  EXPECT_THROW(mp::decode_checkpoint(""), mpe::Error);
  EXPECT_THROW(mp::decode_checkpoint("not a checkpoint at all"), mpe::Error);
  try {
    mp::decode_checkpoint("XXXXYYYYZZZZWWWWXXXXYYYYZZZZWWWW");
    FAIL();
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kParse);
  }
}

TEST(CheckpointFingerprint, SensitiveToResultShapingOptionsOnly) {
  mp::EstimatorOptions a;
  const std::uint64_t fp = mp::run_fingerprint(a, 7, "pop");

  mp::EstimatorOptions b = a;
  b.epsilon = 0.01;
  EXPECT_NE(mp::run_fingerprint(b, 7, "pop"), fp);

  mp::EstimatorOptions c = a;
  c.max_hyper_samples += 100;  // budget: deliberately outside the print
  EXPECT_EQ(mp::run_fingerprint(c, 7, "pop"), fp);

  mp::EstimatorOptions d = a;
  d.control.deadline =
      mpe::util::Deadline::after(std::chrono::seconds(1));  // budget too
  EXPECT_EQ(mp::run_fingerprint(d, 7, "pop"), fp);

  EXPECT_NE(mp::run_fingerprint(a, 8, "pop"), fp);    // seed
  EXPECT_NE(mp::run_fingerprint(a, 7, "other"), fp);  // population
}

TEST(CheckpointFingerprint, VisitorFieldsMarkedFingerprintedAreFolded) {
  // A deep result-shaping field (the MLE grid) and an enum must perturb
  // the print; the two budget/cadence fields run_fingerprint leaves out
  // must not.
  mp::EstimatorOptions a;
  const std::uint64_t fp = mp::run_fingerprint(a, 3, "pop");

  mp::EstimatorOptions grid = a;
  grid.hyper.mle.grid_points += 1;  // fingerprinted: shapes every fit
  EXPECT_NE(mp::run_fingerprint(grid, 3, "pop"), fp);

  mp::EstimatorOptions interval = a;
  interval.interval = mp::IntervalKind::kBootstrap;  // fingerprinted enum
  EXPECT_NE(mp::run_fingerprint(interval, 3, "pop"), fp);

  mp::EstimatorOptions budget = a;
  budget.max_hyper_samples *= 2;  // not fingerprinted: resumable budget
  budget.checkpoint_every_k += 4;  // not fingerprinted: write cadence
  EXPECT_EQ(mp::run_fingerprint(budget, 3, "pop"), fp);
}

TEST(CheckpointFingerprint, PinnedAcrossReleases) {
  // Values of an earlier release, which still offered a third degenerate
  // policy and a second quantile mode: removing them must not move the
  // print of any composition that remains, or its checkpoints stop
  // resuming.
  const mp::EstimatorOptions paper;
  EXPECT_EQ(mp::run_fingerprint(paper, 3, "finite(20000)"),
            0x3362fb8cb5297fa3ull);

  mp::EstimatorOptions other;
  other.hyper.degenerate_policy = mp::DegenerateFitPolicy::kDiscardRedraw;
  other.interval = mp::IntervalKind::kBootstrap;
  other.hyper.finite_correction = false;
  other.hyper.n = 77;
  other.hyper.m = 13;
  EXPECT_EQ(mp::run_fingerprint(other, 3, "finite(20000)"),
            0x629fc49d47f81d8dull);
}

TEST(CheckpointFingerprint, FullPrecisionOfLongFieldNames) {
  // The longest field name plus a 23-character value once overflowed a
  // fixed 48-byte buffer, so values differing only in their last digit
  // shared a fingerprint.
  mp::EstimatorOptions a;
  a.hyper.endpoint_ridge_tolerance = 1.2345678901234567e-100;
  mp::EstimatorOptions b;
  b.hyper.endpoint_ridge_tolerance = 1.2345678901234567e-101;
  EXPECT_NE(mp::run_fingerprint(a, 3, "pop"),
            mp::run_fingerprint(b, 3, "pop"));
}

// --- Resume bit-identity ----------------------------------------------------

TEST(CheckpointResume, ParallelResumeBitIdenticalAcrossThreadCounts) {
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;  // converges at k = 18 here
  const std::uint64_t seed = 91;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_TRUE(reference.converged);
  ASSERT_GT(reference.hyper_samples, 5u);

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    const std::string path =
        temp_path("ckpt_par_resume_" + std::to_string(threads) + ".ckpt");
    std::remove(path.c_str());
    mp::ParallelOptions par;
    par.threads = threads;

    mp::EstimatorOptions capped = opt;
    capped.checkpoint_path = path;
    capped.max_hyper_samples = 5;
    const auto partial = mp::estimate_max_power(pop, capped, seed, par);
    ASSERT_FALSE(partial.converged);

    mp::EstimatorOptions full = opt;
    full.checkpoint_path = path;
    const auto resumed = mp::estimate_max_power(pop, full, seed, par);
    expect_identical(reference, resumed);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, ResumeAtDifferentThreadCountBitIdentical) {
  // Checkpoint taken at 8 threads, resumed at 1 and 2: the pipelined
  // estimator's per-index streams make the schedule unobservable, so the
  // thread count is not part of the fingerprint and may change mid-run.
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;
  const std::uint64_t seed = 91;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 5u);

  for (unsigned resume_threads : {1u, 2u}) {
    SCOPED_TRACE(resume_threads);
    const std::string path = temp_path(
        "ckpt_cross_threads_" + std::to_string(resume_threads) + ".ckpt");
    std::remove(path.c_str());
    mp::EstimatorOptions capped = opt;
    capped.checkpoint_path = path;
    capped.max_hyper_samples = 5;
    mp::ParallelOptions eight;
    eight.threads = 8;
    (void)mp::estimate_max_power(pop, capped, seed, eight);

    mp::EstimatorOptions full = opt;
    full.checkpoint_path = path;
    mp::ParallelOptions narrow;
    narrow.threads = resume_threads;
    const auto resumed = mp::estimate_max_power(pop, full, seed, narrow);
    expect_identical(reference, resumed);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, BootstrapIntervalResumeBitIdentical) {
  // The bootstrap stopping rule consumes the interval RNG at every accept;
  // the checkpoint must restore that stream position exactly.
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.interval = mp::IntervalKind::kBootstrap;
  opt.epsilon = 0.005;  // converges at k = 49 here
  const std::uint64_t seed = 91;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 5u);

  const std::string path = temp_path("ckpt_bootstrap_resume.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions capped = opt;
  capped.checkpoint_path = path;
  capped.max_hyper_samples = 5;
  (void)mp::estimate_max_power(pop, capped, seed);

  mp::EstimatorOptions full = opt;
  full.checkpoint_path = path;
  const auto resumed = mp::estimate_max_power(pop, full, seed);
  expect_identical(reference, resumed);
  std::remove(path.c_str());
}

TEST(CheckpointResume, CompleteCheckpointShortCircuitsWithoutDrawing) {
  auto inner = weibull_population(20000, 55);
  // No faults installed: the decorator is used purely as a draw counter.
  mpe::vec::FaultInjectingPopulation pop(inner, {});
  const std::string path = temp_path("ckpt_complete.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  const std::uint64_t seed = 7;
  const auto first = mp::estimate_max_power(pop, opt, seed);
  ASSERT_TRUE(first.converged);
  const std::uint64_t draws_after_first = pop.draws();

  const auto second = mp::estimate_max_power(pop, opt, seed);
  EXPECT_EQ(pop.draws(), draws_after_first) << "resume re-simulated the run";
  expect_identical(first, second);
  std::remove(path.c_str());
}

TEST(CheckpointResume, CheckpointEveryKStillResumesExactly) {
  auto pop = weibull_population(20000, 61);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;  // converges at k = 9 here, so k=3 batching skips writes
  const std::uint64_t seed = 19;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 4u);

  const std::string path = temp_path("ckpt_every_k.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions capped = opt;
  capped.checkpoint_path = path;
  capped.checkpoint_every_k = 3;
  capped.max_hyper_samples = 4;
  (void)mp::estimate_max_power(pop, capped, seed);

  mp::EstimatorOptions full = opt;
  full.checkpoint_path = path;
  full.checkpoint_every_k = 3;
  const auto resumed = mp::estimate_max_power(pop, full, seed);
  expect_identical(reference, resumed);
  std::remove(path.c_str());
}

/// Sets or clears MPE_FORCE_SCALAR for its lifetime, restoring the value it
/// found (the scalar-kernel CI leg sets it for the whole suite).
class ForceScalarEnv {
 public:
  ForceScalarEnv() {
    if (const char* v = std::getenv(kName)) saved_ = v;
  }
  ~ForceScalarEnv() {
    if (saved_) {
      ::setenv(kName, saved_->c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }
  void force(bool on) {
    if (on) {
      ::setenv(kName, "1", 1);
    } else {
      ::unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "MPE_FORCE_SCALAR";
  std::optional<std::string> saved_;
};

TEST(CheckpointResume, ZeroDelayResumeOnAnotherSimdKernelBitIdentical) {
  // A zero-delay population draws on sim::best_kernel(): the widest kernel
  // the host runs, or scalar64 under MPE_FORCE_SCALAR. Seeded values are
  // bit-identical across kernels, so a checkpoint written on scalar64
  // resumes on the widest kernel and matches an uninterrupted run.
  const auto nl = mpe::gen::build_preset("c432", 3);
  mpe::sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = mpe::sim::DelayModel::kZero;
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mp::EstimatorOptions opt;
  const std::uint64_t seed = 3;
  ForceScalarEnv env;

  env.force(false);
  mpe::sim::CyclePowerEvaluator ref_eval(nl, eval_opt);
  mpe::vec::StreamingPopulation ref_pop(gen, ref_eval);
  const auto reference = mp::estimate_max_power(ref_pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 5u);

  const std::string path = temp_path("ckpt_cross_kernel.ckpt");
  std::remove(path.c_str());
  env.force(true);
  mpe::sim::CyclePowerEvaluator scalar_eval(nl, eval_opt);
  mpe::vec::StreamingPopulation scalar_pop(gen, scalar_eval);
  EXPECT_EQ(scalar_pop.kernel(), mpe::sim::SimdKernel::kScalar64);
  mp::EstimatorOptions capped = opt;
  capped.checkpoint_path = path;
  capped.max_hyper_samples = 5;
  ASSERT_FALSE(mp::estimate_max_power(scalar_pop, capped, seed).converged);

  env.force(false);
  mpe::sim::CyclePowerEvaluator wide_eval(nl, eval_opt);
  mpe::vec::StreamingPopulation wide_pop(gen, wide_eval);
  EXPECT_EQ(wide_pop.kernel(), mpe::sim::available_kernels().front());
  mp::EstimatorOptions full = opt;
  full.checkpoint_path = path;
  const auto resumed = mp::estimate_max_power(wide_pop, full, seed);
  expect_identical(reference, resumed);
  std::remove(path.c_str());
}

// --- Refusals ---------------------------------------------------------------

TEST(CheckpointRefusal, FingerprintMismatchIsPrecondition) {
  auto pop = weibull_population(20000, 71);
  const std::string path = temp_path("ckpt_mismatch.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  opt.max_hyper_samples = 3;
  const std::uint64_t seed = 3;
  (void)mp::estimate_max_power(pop, opt, seed);

  mp::EstimatorOptions other = opt;
  other.epsilon = 0.01;  // result-shaping change: different run
  try {
    (void)mp::estimate_max_power(pop, other, seed);
    FAIL() << "mismatched checkpoint resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
    EXPECT_NE(e.context().find("expected_fingerprint"), std::string::npos);
  }

  // A different seed is a different value sequence: also refused.
  try {
    (void)mp::estimate_max_power(pop, opt, seed + 1);
    FAIL() << "wrong-seed checkpoint resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRefusal, OtherDelayModelIsPrecondition) {
  // Same circuit, generator and seed, but another delay model draws other
  // values (glitches or none): each pair of models refuses the other's
  // checkpoint.
  const auto nl = mpe::gen::build_preset("c432", 3);
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  const std::uint64_t seed = 3;
  const mpe::sim::DelayModel writers[] = {mpe::sim::DelayModel::kZero,
                                          mpe::sim::DelayModel::kUnit};
  for (const auto written : writers) {
    const std::string path = temp_path("ckpt_delay.ckpt");
    std::remove(path.c_str());
    mp::EstimatorOptions opt;
    opt.checkpoint_path = path;
    opt.max_hyper_samples = 3;
    mpe::sim::PowerEvalOptions eval_opt;
    eval_opt.delay_model = written;
    mpe::sim::CyclePowerEvaluator write_eval(nl, eval_opt);
    mpe::vec::StreamingPopulation write_pop(gen, write_eval);
    (void)mp::estimate_max_power(write_pop, opt, seed);

    eval_opt.delay_model = mpe::sim::DelayModel::kFanoutLoaded;
    mpe::sim::CyclePowerEvaluator loaded_eval(nl, eval_opt);
    mpe::vec::StreamingPopulation loaded_pop(gen, loaded_eval);
    try {
      (void)mp::estimate_max_power(loaded_pop, opt, seed);
      FAIL() << mpe::sim::to_string(written)
             << "-delay checkpoint resumed under loaded delay";
    } catch (const mpe::Error& e) {
      EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
      EXPECT_NE(e.context().find("expected_fingerprint"), std::string::npos);
    }
    std::remove(path.c_str());
  }
}

/// A population under another description, as an earlier build named it.
class RenamedPopulation final : public mpe::vec::Population {
 public:
  RenamedPopulation(mpe::vec::Population& inner, std::string description)
      : inner_(inner), description_(std::move(description)) {}
  double draw(mpe::Rng& rng) override { return inner_.draw(rng); }
  void draw_batch(std::span<double> out, mpe::Rng& rng) override {
    inner_.draw_batch(out, rng);
  }
  bool concurrent_draw_safe() const override {
    return inner_.concurrent_draw_safe();
  }
  std::optional<std::size_t> size() const override { return inner_.size(); }
  std::string description() const override { return description_; }

 private:
  mpe::vec::Population& inner_;
  std::string description_;
};

TEST(CheckpointRefusal, EarlierEnergyOrderLoadedCheckpointIsPrecondition) {
  // Loaded-delay checkpoints written before energies were summed in node
  // order carry the description without its revision, and may hold values
  // an ulp away: they are refused, not resumed.
  const auto nl = mpe::gen::build_preset("c432", 3);
  const mpe::vec::UniformPairGenerator gen(nl.num_inputs());
  mpe::sim::CyclePowerEvaluator eval(nl);  // fanout-loaded, inertial
  mpe::vec::StreamingPopulation pop(gen, eval);
  const std::string earlier = "streaming population over " + nl.name() +
                              " (" + gen.description() +
                              ") [fanout-loaded delay]";
  ASSERT_NE(pop.description(), earlier);
  RenamedPopulation written(pop, earlier);

  const std::string path = temp_path("ckpt_energy_order.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  opt.max_hyper_samples = 3;
  const std::uint64_t seed = 3;
  (void)mp::estimate_max_power(written, opt, seed);
  try {
    (void)mp::estimate_max_power(pop, opt, seed);
    FAIL() << "earlier energy-order checkpoint resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
    EXPECT_NE(e.context().find("expected_fingerprint"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRefusal, EarlierFitSolverCheckpointIsPrecondition) {
  // The same run written before the Weibull fit's solver changed (solver
  // revision 1) carried this fingerprint; its hyper-values come from the
  // other solver and may differ in the last digits, so it is refused, not
  // resumed.
  constexpr std::uint64_t kRevision1Fingerprint = 0xdb63ccc9effc8882ull;
  auto pop = weibull_population(20000, 77);
  const std::string path = temp_path("ckpt_fit_solver.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  opt.max_hyper_samples = 3;
  const std::uint64_t seed = 3;
  (void)mp::estimate_max_power(pop, opt, seed);
  mp::RunCheckpoint written = mp::load_checkpoint_file(path);
  ASSERT_NE(written.fingerprint, kRevision1Fingerprint);
  written.fingerprint = kRevision1Fingerprint;
  mp::save_checkpoint_file(path, written);
  try {
    (void)mp::estimate_max_power(pop, opt, seed);
    FAIL() << "checkpoint of the earlier fit solver resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
    EXPECT_NE(e.context().find("found_fingerprint"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRefusal, SerialCheckpointRefusedByParallelPath) {
  // Earlier releases had a sequential entry point whose checkpoints clear
  // flag bit 1. Nothing writes one any more, but a file on disk is outside
  // input: the same run's checkpoint with only that flag cleared is refused.
  auto pop = weibull_population(20000, 73);
  const std::string path = temp_path("ckpt_pathkind.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  opt.max_hyper_samples = 3;
  const std::uint64_t seed = 3;
  (void)mp::estimate_max_power(pop, opt, seed);
  mp::RunCheckpoint serial = mp::load_checkpoint_file(path);
  ASSERT_TRUE(serial.parallel_path);
  serial.parallel_path = false;
  mp::save_checkpoint_file(path, serial);
  ASSERT_FALSE(mp::load_checkpoint_file(path).parallel_path);

  try {
    (void)mp::estimate_max_power(pop, opt, seed);
    FAIL() << "serial checkpoint resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRefusal, CorruptFileIsCorruptData) {
  auto pop = weibull_population(20000, 75);
  const std::string path = temp_path("ckpt_corrupt.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  opt.max_hyper_samples = 3;
  const std::uint64_t seed = 3;
  (void)mp::estimate_max_power(pop, opt, seed);

  std::string bytes = mpe::util::read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  try {
    (void)mp::estimate_max_power(pop, opt, seed);
    FAIL() << "corrupt checkpoint resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kCorruptData);
  }
  std::remove(path.c_str());
}

TEST(AtomicFile, WriteReadRoundTripAndOverwrite) {
  const std::string path = temp_path("atomic_file_rt.bin");
  std::string payload = "hello\0world", longer(4096, 'x');
  payload.resize(11);
  mpe::util::atomic_write_file(path, longer);
  mpe::util::atomic_write_file(path, payload);  // shrinking overwrite
  EXPECT_EQ(mpe::util::read_file(path), payload);
  EXPECT_TRUE(mpe::util::file_exists(path));
  std::remove(path.c_str());
  EXPECT_FALSE(mpe::util::file_exists(path));
}

TEST(AtomicFile, UnwritableDirectoryIsIoError) {
  try {
    mpe::util::atomic_write_file("/nonexistent-dir-mpe/x.bin", "data");
    FAIL() << "write into a missing directory succeeded";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kIo);
  }
}

}  // namespace
