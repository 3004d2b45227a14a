#include "maxpower/shard.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "evt/weibull_mle.hpp"
#include "maxpower/hyper_sample.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/tail_fitter.hpp"
#include "maxpower/unit_source.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace mpe::maxpower {

namespace {

constexpr std::uint8_t kFlagValid = 1u << 0;
constexpr std::uint8_t kFlagDegenerate = 1u << 1;
// Bit 2 was the removed PWM refit flag: never set, ignored when read.
constexpr std::uint8_t kFlagConstant = 1u << 3;
constexpr std::uint8_t kFlagMleConverged = 1u << 4;

std::uint8_t pack_flags(const ShardSample& s) {
  std::uint8_t f = 0;
  if (s.valid) f |= kFlagValid;
  if (s.degenerate) f |= kFlagDegenerate;
  if (s.constant_sample) f |= kFlagConstant;
  if (s.mle_converged) f |= kFlagMleConverged;
  return f;
}

void unpack_flags(std::uint8_t f, ShardSample& s) {
  s.valid = (f & kFlagValid) != 0;
  s.degenerate = (f & kFlagDegenerate) != 0;
  s.constant_sample = (f & kFlagConstant) != 0;
  s.mle_converged = (f & kFlagMleConverged) != 0;
}

/// An estimate field may be non-finite (util/jsonl renders NaN/Inf as the
/// strings "nan"/"inf"/"-inf"); the fold discards such samples but the
/// record must still round-trip.
double estimate_field(const util::JsonValue& v, std::string_view key) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr) {
    throw Error(ErrorCode::kBadData, "shard sample missing field",
                ErrorContext{}.kv("field", key).str());
  }
  if (field->is_number()) return field->as_number();
  if (field->is_string()) {
    const std::string& s = field->as_string();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
  }
  throw Error(ErrorCode::kBadData, "shard sample field is not a number",
              ErrorContext{}.kv("field", key).str());
}

std::uint64_t uint_field(const util::JsonValue& v, std::string_view key,
                         std::uint64_t fallback, bool required) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr) {
    if (required) {
      throw Error(ErrorCode::kBadData, "shard sample missing field",
                  ErrorContext{}.kv("field", key).str());
    }
    return fallback;
  }
  if (!field->is_number()) {
    throw Error(ErrorCode::kBadData, "shard sample field is not a number",
                ErrorContext{}.kv("field", key).str());
  }
  return static_cast<std::uint64_t>(field->as_number());
}

util::JsonFields shard_sample_fields(const ShardSample& s) {
  util::JsonFields f;
  f.add("i", s.index);
  f.add("est", s.estimate);
  f.add("u", s.units);
  if (s.nonfinite_units != 0) f.add("nfu", s.nonfinite_units);
  f.add("f", static_cast<std::uint64_t>(pack_flags(s)));
  return f;
}

ShardSample decode_shard_sample(const util::JsonValue& v) {
  if (!v.is_object()) {
    throw Error(ErrorCode::kBadData, "shard sample is not a JSON object");
  }
  ShardSample s;
  s.index = uint_field(v, "i", 0, /*required=*/true);
  s.estimate = estimate_field(v, "est");
  s.units = uint_field(v, "u", 0, /*required=*/true);
  s.nonfinite_units = uint_field(v, "nfu", 0, /*required=*/false);
  unpack_flags(
      static_cast<std::uint8_t>(uint_field(v, "f", 0, /*required=*/true)), s);
  return s;
}

}  // namespace

ShardSample shard_sample_from_hyper(std::uint64_t index,
                                    const HyperSampleResult& hs) {
  ShardSample s;
  s.index = index;
  s.estimate = hs.estimate;
  s.units = hs.units_used;
  s.nonfinite_units = hs.nonfinite_units;
  s.valid = hs.valid;
  s.degenerate = hs.degenerate;
  s.constant_sample = hs.constant_sample;
  s.mle_converged = hs.mle.converged;
  return s;
}

Engine::ReplaySample replay_sample(const ShardSample& s) {
  Engine::ReplaySample r;
  r.index = s.index;
  r.hs.estimate = s.estimate;
  r.hs.units_used = static_cast<std::size_t>(s.units);
  r.hs.nonfinite_units = static_cast<std::size_t>(s.nonfinite_units);
  r.hs.valid = s.valid;
  r.hs.degenerate = s.degenerate;
  r.hs.constant_sample = s.constant_sample;
  r.hs.mle.converged = s.mle_converged;
  return r;
}

std::string encode_shard_samples(const std::vector<ShardSample>& samples) {
  std::string out = "[";
  bool first = true;
  for (const ShardSample& s : samples) {
    if (!first) out += ',';
    out += shard_sample_fields(s).object();
    first = false;
  }
  out += ']';
  return out;
}

std::vector<ShardSample> decode_shard_samples(std::string_view json_array) {
  util::JsonValue v;
  try {
    v = util::parse_json(json_array);
  } catch (const Error& e) {
    throw Error(ErrorCode::kParse, "malformed shard sample array",
                ErrorContext{}.kv("detail", e.message()).str());
  }
  if (!v.is_array()) {
    throw Error(ErrorCode::kBadData, "shard samples are not a JSON array");
  }
  std::vector<ShardSample> out;
  out.reserve(v.as_array().size());
  for (const util::JsonValue& item : v.as_array()) {
    out.push_back(decode_shard_sample(item));
  }
  return out;
}

std::uint64_t job_attempt_budget(const CampaignJob& job) {
  // The engine's attempt cap: max_hyper_samples accepted samples plus the
  // redraw budget for discarded ones (EstimatorOptions default; the
  // manifest has no redraw knob).
  return job.max_hyper_samples + EstimatorOptions{}.max_redraws;
}

std::size_t shard_count(std::uint64_t attempts, std::uint64_t shard_size) {
  if (attempts == 0) return 0;
  if (shard_size == 0) return 1;
  return static_cast<std::size_t>((attempts + shard_size - 1) / shard_size);
}

ShardRange shard_range(std::uint64_t attempts, std::uint64_t shard_size,
                       std::size_t k) {
  if (shard_size == 0) shard_size = attempts;
  ShardRange r;
  r.lo = k * shard_size;
  r.hi = std::min(attempts, r.lo + shard_size);
  if (r.lo >= r.hi) {
    throw Error(ErrorCode::kPrecondition, "shard index out of range",
                ErrorContext{}
                    .kv("shard", static_cast<std::uint64_t>(k))
                    .kv("attempts", attempts)
                    .str());
  }
  return r;
}

namespace {

std::string shard_checkpoint_path(const ShardRunOptions& options,
                                  const CampaignJob& job,
                                  std::uint64_t shard) {
  return options.state_dir + "/" + job.name + ".shard" +
         std::to_string(shard) + ".ckpt";
}

std::string shard_header_line(const CampaignJob& job, std::uint64_t shard,
                              std::uint64_t lo, std::uint64_t hi) {
  util::JsonFields f;
  f.add("schema", "mpe.shard");
  f.add("v", std::uint64_t{1});
  f.add("job", job.name);
  f.add("shard", shard);
  f.add("lo", lo);
  f.add("hi", hi);
  // The full spec pins every value-affecting knob of the job, and the fit
  // solver revision the code behind it: a shard checkpoint can never be
  // resumed under a different job configuration or a different solver.
  f.add("spec", campaign_job_to_json(job));
  f.add("mle_solver", std::uint64_t{evt::kWeibullMleSolverRevision});
  return seal_ledger_line(f.object());
}

/// Loads the contiguous [lo, ...) prefix recorded in a shard checkpoint.
/// Returns an empty vector (and header_ok=false) when the file is missing,
/// its header is absent/corrupt, or the header names a different
/// job/shard/range/spec/fit solver. Sample records may arrive out of order or
/// duplicated (two speculating workers share the file); only the contiguous
/// prefix from `lo` is trusted, anything else is recomputed.
std::vector<ShardSample> load_shard_checkpoint(const std::string& path,
                                               const CampaignJob& job,
                                               std::uint64_t shard,
                                               std::uint64_t lo,
                                               std::uint64_t hi,
                                               bool& header_ok) {
  header_ok = false;
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  bool saw_header = false;
  std::map<std::uint64_t, ShardSample> by_index;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!verify_ledger_line(line)) continue;  // torn/interleaved: recompute
    util::JsonValue v;
    try {
      v = util::parse_json(line);
    } catch (const Error&) {
      continue;
    }
    if (!v.is_object()) continue;
    if (const auto* schema = v.find("schema");
        schema != nullptr && schema->is_string() &&
        schema->as_string() == "mpe.shard") {
      const auto* j = v.find("job");
      const auto* s = v.find("spec");
      try {
        saw_header = j != nullptr && j->is_string() &&
                     j->as_string() == job.name &&
                     uint_field(v, "shard", ~0ull, true) == shard &&
                     uint_field(v, "lo", ~0ull, true) == lo &&
                     uint_field(v, "hi", ~0ull, true) == hi &&
                     s != nullptr && s->is_string() &&
                     s->as_string() == campaign_job_to_json(job) &&
                     uint_field(v, "mle_solver", 0, true) ==
                         std::uint64_t{evt::kWeibullMleSolverRevision};
      } catch (const Error&) {
        saw_header = false;
      }
      if (!saw_header) return {};  // a foreign header: discard everything
      continue;
    }
    if (!saw_header) return {};  // samples before any header: not ours
    try {
      ShardSample s = decode_shard_sample(v);
      if (s.index >= lo && s.index < hi) by_index.emplace(s.index, s);
    } catch (const Error&) {
      continue;
    }
  }
  header_ok = saw_header;
  std::vector<ShardSample> prefix;
  for (std::uint64_t i = lo; i < hi; ++i) {
    const auto it = by_index.find(i);
    if (it == by_index.end()) break;
    prefix.push_back(it->second);
  }
  return prefix;
}

}  // namespace

ShardOutcome run_campaign_shard(const CampaignJob& job, std::uint64_t shard,
                                std::uint64_t lo, std::uint64_t hi,
                                const ShardRunOptions& options,
                                CircuitCache& cache) {
  ShardOutcome out;
  out.job = job.name;
  out.shard = shard;
  out.lo = lo;
  out.hi = hi;
  if (hi <= lo) {
    out.status = JobStatus::kFailed;
    out.error = ErrorCode::kPrecondition;
    return out;
  }

  const EngineConfig cfg = campaign_engine_config(job);
  const TailFitter& fitter =
      cfg.fitter != nullptr ? *cfg.fitter : default_tail_fitter();

  CampaignJobRuntime runtime;
  try {
    runtime = build_campaign_runtime(job, cache);
  } catch (const Error& e) {
    out.status = JobStatus::kFailed;
    out.error = e.code();
    return out;
  } catch (const std::exception&) {
    out.status = JobStatus::kFailed;
    out.error = ErrorCode::kInternal;
    return out;
  }
  PopulationUnitSource source(*runtime.population);

  const std::string ckpt = shard_checkpoint_path(options, job, shard);
  bool header_ok = false;
  out.samples = load_shard_checkpoint(ckpt, job, shard, lo, hi, header_ok);
  if (!header_ok) {
    // Fresh (or discarded) checkpoint: rewrite the header so appended
    // records have a provenance line in front of them.
    try {
      std::ofstream fresh(ckpt, std::ios::trunc);
      fresh << shard_header_line(job, shard, lo, hi) << '\n';
    } catch (...) {
      // Checkpointing is best-effort; the shard still computes.
    }
  }

  std::vector<std::string> pending;
  const auto flush_pending = [&]() {
    for (const std::string& rec : pending) {
      try {
        append_ledger_line(ckpt, rec);
      } catch (const Error&) {
        break;  // best-effort: lost records are recomputed on resume
      }
    }
    pending.clear();
  };

  const std::size_t every = options.checkpoint_every_k == 0
                                ? 1
                                : options.checkpoint_every_k;
  for (std::uint64_t i = lo + out.samples.size(); i < hi; ++i) {
    const util::StopCause cause = options.control.should_stop();
    if (cause != util::StopCause::kNone) {
      flush_pending();
      out.status = JobStatus::kStopped;
      out.error = cause == util::StopCause::kDeadline ? ErrorCode::kDeadline
                                                      : ErrorCode::kCancelled;
      return out;
    }
    HyperSampleResult hs;
    try {
      Rng hyper_rng(stream_seed(job.seed, i));
      hs = draw_hyper_sample(source, cfg.options.hyper, fitter, hyper_rng);
    } catch (const Error& e) {
      flush_pending();
      out.status = JobStatus::kFailed;
      out.error = e.code();
      return out;
    } catch (const std::exception&) {
      flush_pending();
      out.status = JobStatus::kFailed;
      out.error = ErrorCode::kInternal;
      return out;
    }
    const ShardSample s = shard_sample_from_hyper(i, hs);
    out.samples.push_back(s);
    pending.push_back(seal_ledger_line(shard_sample_fields(s).object()));
    if (pending.size() >= every) flush_pending();
  }
  flush_pending();
  out.status = JobStatus::kDone;
  return out;
}

AssembledJob assemble_job(const CampaignJob& job,
                          const std::vector<ShardSample>& prefix) {
  const EngineConfig cfg = campaign_engine_config(job);
  const Engine engine(cfg);
  std::vector<Engine::ReplaySample> samples;
  samples.reserve(prefix.size());
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i].index != i) {
      throw Error(ErrorCode::kPrecondition,
                  "shard prefix is not contiguous from index 0",
                  ErrorContext{}
                      .kv("position", i)
                      .kv("index", prefix[i].index)
                      .str());
    }
    samples.push_back(replay_sample(prefix[i]));
  }
  AssembledJob out;
  out.result = engine.replay(job.seed, samples);
  // Terminal when the fold hit its stopping point inside the prefix:
  // convergence, the accepted-sample budget, or the full attempt budget
  // (the redraws-exhausted case). Otherwise the live run would have kept
  // drawing, so the result is a probe to discard.
  out.terminal = out.result.converged ||
                 out.result.hyper_samples >= cfg.options.max_hyper_samples ||
                 prefix.size() >= job_attempt_budget(job);
  return out;
}

std::string shard_record_line(std::string_view job, std::uint64_t shard,
                              std::uint64_t lo, std::uint64_t hi,
                              std::string_view worker,
                              const std::vector<ShardSample>& samples) {
  util::JsonFields f;
  f.add("schema", "mpe.campaign");
  f.add("v", std::uint64_t{1});
  f.add("job", job);
  f.add("shard", shard);
  f.add("lo", lo);
  f.add("hi", hi);
  f.add("status", "done");
  if (!worker.empty()) f.add("worker", worker);
  f.add("samples", encode_shard_samples(samples));
  return seal_ledger_line(f.object());
}

}  // namespace mpe::maxpower
