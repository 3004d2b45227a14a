// Intra-job wave sharding: one campaign job split into contiguous
// wave-index ranges [lo, hi) that different workers (possibly on different
// hosts) compute independently and a coordinator folds back together.
//
// Why this is sound: hyper-sample i of an engine run is a pure
// function of Rng(stream_seed(seed, i)) — the counter-derived streams make
// the draw for index i identical no matter which process computes it, in
// what order, or how many times. A shard therefore just materializes a
// slice of that deterministic sequence (compute_shard / run_campaign_shard),
// and assembly (assemble_job -> Engine::replay) re-runs the engine's own
// fold + stopping chain over the recorded prefix, yielding a result
// bit-identical to a single-process run. Exactly-once delivery of shard
// results is the ledger's job (maxpower/ledger, job:shard keyed records);
// this module only has to be idempotent, which determinism gives for free.
//
// Shard checkpoints are sealed JSONL ("mpe.shard" header + one record per
// computed index) under <state_dir>/<job>.shard<k>.ckpt. Two speculating
// workers may append to the same file concurrently: records are
// deduplicated by index on load (identical bytes for one index, since the
// values are deterministic) and any torn or interleaved line fails its CRC
// and is simply recomputed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "maxpower/campaign.hpp"

namespace mpe::maxpower {

/// One computed hyper-sample of a shard: the slice of HyperSampleResult the
/// engine fold actually consumes (estimate, units, validity flags), keyed
/// by its wave index. Doubles survive the JSON round trip bit-exactly
/// (util/jsonl shortest round-trippable rendering).
struct ShardSample {
  std::uint64_t index = 0;
  double estimate = 0.0;
  std::uint64_t units = 0;            ///< units_used (n*m)
  std::uint64_t nonfinite_units = 0;  ///< non-finite unit values sanitized
  bool valid = false;
  bool degenerate = false;
  bool constant_sample = false;
  bool mle_converged = false;

  bool operator==(const ShardSample&) const = default;
};

/// Projects a drawn hyper-sample onto the fold-relevant slice.
ShardSample shard_sample_from_hyper(std::uint64_t index,
                                    const HyperSampleResult& hs);

/// Inverse of shard_sample_from_hyper for replay: fields the fold never
/// reads keep their defaults.
Engine::ReplaySample replay_sample(const ShardSample& s);

/// JSON array codec for shard-sample sequences — the wire payload of
/// shard-result messages and the ledger's shard records. Element form:
/// {"i":index,"est":estimate,"u":units,["nfu":n,]"f":flags}.
std::string encode_shard_samples(const std::vector<ShardSample>& samples);
/// Throws mpe::Error(kParse/kBadData) on malformed input.
std::vector<ShardSample> decode_shard_samples(std::string_view json_array);

/// Total wave-index budget of one job: the engine run never draws past
/// max_hyper_samples + max_redraws attempts, so shards partition
/// [0, attempt budget).
std::uint64_t job_attempt_budget(const CampaignJob& job);

struct ShardRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Attempts per shard wherever a shard size is not given: the
/// distributed coordinator (`campaign-coordinator`) and the server's fleet
/// mode (`serve --fleet`) share it.
inline constexpr std::size_t kDefaultShardSize = 16;

/// Number of shards covering `attempts` indices at `shard_size` per shard
/// (last one may be short). shard_size == 0 means whole-job (one shard).
std::size_t shard_count(std::uint64_t attempts, std::uint64_t shard_size);
/// Range of shard `k` under the same partition.
ShardRange shard_range(std::uint64_t attempts, std::uint64_t shard_size,
                       std::size_t k);

/// How one shard executes on a worker.
struct ShardRunOptions {
  std::string state_dir;  ///< required: shard checkpoints live here
  util::RunControl control;
  std::size_t checkpoint_every_k = 1;  ///< flush cadence, in samples
};

/// Terminal outcome of one shard computation. kDone carries the full
/// [lo, hi) sample slice; kStopped means run control interrupted it (the
/// checkpoint keeps the progress); kFailed names the draw fault.
struct ShardOutcome {
  std::string job;
  std::uint64_t shard = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  JobStatus status = JobStatus::kFailed;
  ErrorCode error = ErrorCode::kOk;
  std::vector<ShardSample> samples;  ///< complete when status == kDone
};

/// Computes hyper-samples lo..hi-1 of `job` (never throws; failures land in
/// the outcome). There is no convergence rule inside a shard — whether the
/// job stops early depends on the global prefix, which only the assembling
/// coordinator sees — so a shard always computes its full range. Resumes
/// from <state_dir>/<job>.shard<k>.ckpt when a valid one exists. The
/// circuit comes from `cache`, so a worker parses and compiles it once.
ShardOutcome run_campaign_shard(const CampaignJob& job, std::uint64_t shard,
                                std::uint64_t lo, std::uint64_t hi,
                                const ShardRunOptions& options,
                                CircuitCache& cache);

/// Result of folding a contiguous done-shard prefix through the engine.
struct AssembledJob {
  EstimationResult result;
  /// True when the prefix covers the job's stopping point — the result is
  /// then the job's final outcome, bit-identical to a single-process run.
  /// False means more shards are needed and `result` is a probe to discard.
  bool terminal = false;
};

/// Replays `prefix` (the concatenated samples of done shards 0..j, indices
/// contiguous from 0) through the job's engine composition. Throws
/// mpe::Error(kPrecondition) on a non-contiguous prefix, kBadData on an
/// invalid job spec. finished_job_outcome() maps a terminal result to the
/// job's outcome.
AssembledJob assemble_job(const CampaignJob& job,
                          const std::vector<ShardSample>& prefix);

/// Renders the sealed "mpe.campaign" ledger record for one done shard
/// (status "done", samples payload inline so a restarted coordinator can
/// rebuild in-flight jobs from the ledger alone). Audit keys these records
/// by job:shard.
std::string shard_record_line(std::string_view job, std::uint64_t shard,
                              std::uint64_t lo, std::uint64_t hi,
                              std::string_view worker,
                              const std::vector<ShardSample>& samples);

}  // namespace mpe::maxpower
