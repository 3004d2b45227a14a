// Durable run state for the estimation loop: a versioned, CRC32-checksummed
// snapshot of everything the estimator needs to continue a run after a
// crash, OOM-kill, or deadline expiry — and produce a result bit-identical
// to the uninterrupted run.
//
// Why this is cheap and exact: the estimate is a pure function of the
// accumulated hyper-sample values (the EVT block-maxima framing), so the
// state to persist is tiny — the accepted hyper-sample values, the interval
// RNG state, the next stream index, and the run diagnostics. The estimator
// draws hyper-sample i from the counter-derived stream stream_seed(seed, i)
// and applies its stopping rule in index order, so a resumed run replays
// nothing: it restores the accepted prefix and keeps consuming indices
// exactly where the original left off, at any thread count.
//
// Safety rails:
//   * Written via util::atomic_write_file (tmp + fsync + rename), so a kill
//     at any instant leaves either the previous checkpoint or the new one
//     on disk, never a torn mixture.
//   * A trailing CRC32 over the whole payload: corruption fails closed with
//     ErrorCode::kCorruptData, never a crash or a silently wrong resume.
//   * A fingerprint over every estimator option that shapes the result plus
//     the base seed and the population description.
//     Resuming under a mismatched configuration is a hard
//     ErrorCode::kPrecondition refusal — budget fields
//     (max_hyper_samples, deadlines) are deliberately excluded so a stopped
//     run can be resumed with a bigger budget.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "maxpower/estimator.hpp"
#include "util/rng.hpp"

namespace mpe::maxpower {

/// Version of the checkpoint byte format. Bump on any layout change; the
/// loader refuses other versions (a checkpoint is process-lifetime state,
/// not an interchange format — there is no cross-version migration).
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// One snapshot of an estimation run, captured at an accept boundary
/// (immediately after a hyper-sample was folded in and the stopping rule
/// evaluated).
struct RunCheckpoint {
  std::uint64_t fingerprint = 0;  ///< run_fingerprint() of the owning run
  std::uint64_t base_seed = 0;    ///< the run's seed
  /// Flag bit 1. Every run writes true; false marks a file of the
  /// sequential path earlier releases had, which no run resumes.
  bool parallel_path = false;
  bool complete = false;          ///< run converged; result is final
  /// Next RNG stream index to consume — where the resumed loop picks up.
  std::uint64_t next_index = 0;
  /// The interval Rng (consumed by the bootstrap stopping rule).
  Rng::State rng;
  /// Stream index that produced each accepted hyper-value, for forensics;
  /// same length as result.hyper_values.
  std::vector<std::uint64_t> accepted_indices;
  /// The full result snapshot: hyper-values, interval, units, diagnostics.
  EstimationResult result;
};

/// Fingerprint of everything that shapes the value sequence of a run:
/// result-affecting EstimatorOptions fields (epsilon, confidence, interval
/// kind, min_hyper_samples, max_redraws, the full hyper-sample and MLE
/// configuration), the base seed, the population description, and the
/// Weibull fit's solver revision
/// (evt::kWeibullMleSolverRevision), since another solver fits the same
/// maxima to values a few ulps to ~1e-6 apart. run_fingerprint appends the
/// option fields to its canonical string in a fixed order (doubles as
/// "%.17g", everything else as decimal integers); CheckpointFingerprint
/// tests pin the result. Excluded on
/// purpose: max_hyper_samples and RunControl (budgets — extending them is
/// the point of resuming), thread counts (runs are bit-identical across
/// them), tracer/checkpoint wiring.
std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed,
                              std::string_view population);

/// As above, additionally folding a non-default engine strategy composition
/// (maxpower/engine.hpp strategy_canon) into the fingerprint. An empty
/// `strategies` yields exactly the 3-argument fingerprint, so default-path
/// checkpoints keep their fingerprints; a non-default fitter or stopping
/// chain refuses to resume a checkpoint written under a different
/// composition.
std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed,
                              std::string_view population,
                              std::string_view strategies);

/// Serializes the checkpoint (magic, version, payload, CRC32 trailer).
std::string encode_checkpoint(const RunCheckpoint& checkpoint);

/// Parses a checkpoint blob. Throws mpe::Error:
///   * kParse        — not a checkpoint (bad magic) or unsupported version;
///   * kCorruptData  — truncated payload, implausible counts, non-finite
///                     hyper-values, or CRC mismatch.
/// Never crashes, hangs, or returns partially filled state.
RunCheckpoint decode_checkpoint(std::string_view bytes);

/// Atomically writes `checkpoint` to `path` (util::atomic_write_file).
void save_checkpoint_file(const std::string& path,
                          const RunCheckpoint& checkpoint);

/// Loads and validates a checkpoint file. Same errors as
/// decode_checkpoint, plus kIo when the file cannot be read.
RunCheckpoint load_checkpoint_file(const std::string& path);

}  // namespace mpe::maxpower
