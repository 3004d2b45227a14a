#include "maxpower/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "evt/weibull_mle.hpp"
#include "maxpower/options_fields.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/crc32.hpp"
#include "util/status.hpp"

namespace mpe::maxpower {

namespace {

constexpr std::uint32_t kMagic = 0x4b43504du;  // "MPCK" little-endian

// Hard caps on variable-length sections. A checkpoint describes one run, so
// these are generous by orders of magnitude; anything larger is corruption
// and must be rejected before allocation.
constexpr std::uint64_t kMaxHyperValues = 1u << 20;
constexpr std::uint64_t kMaxRecords = 256;
constexpr std::uint64_t kMaxStringLen = 1u << 20;

[[noreturn]] void corrupt(const char* what, std::string context = "") {
  throw Error(ErrorCode::kCorruptData,
              std::string("checkpoint corrupt: ") + what, context);
}

// --- little-endian append/read over a byte string ---------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s.data(), s.size());
}

/// Bounds-checked cursor over the checkpoint payload. Every read throws
/// kCorruptData on overrun — the CRC makes overruns unreachable in practice,
/// but the parser still fails closed without it.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string str(std::uint64_t max_len) {
    const std::uint64_t len = u64();
    if (len > max_len) corrupt("string length implausible");
    need(len);
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::uint64_t n) {
    if (n > bytes_.size() - pos_) corrupt("payload truncated");
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// --- fingerprint ------------------------------------------------------------

void fp_num(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
  out += buf;
}

void fp_u64(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += '=';
  out += std::to_string(v);
  out += ';';
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

namespace {

/// options_fields visitor that renders the fingerprinted subset in the
/// canonical order and format (doubles via "%.17g", everything else as
/// decimal integers). Non-fingerprinted fields are skipped, which is the
/// whole exclusion mechanism: the flag lives next to the field in
/// visit_estimator_options, not in a second hand-maintained list here.
struct FingerprintVisitor {
  std::string& canon;

  void number(const char* name, const double& v, bool fingerprinted) {
    if (fingerprinted) fp_num(canon, name, v);
  }
  template <typename T>
  void integer(const char* name, const T& v, bool fingerprinted) {
    if (fingerprinted) fp_u64(canon, name, static_cast<std::uint64_t>(v));
  }
  void flag(const char* name, const bool& v, bool fingerprinted) {
    if (fingerprinted) fp_u64(canon, name, v ? 1 : 0);
  }
  template <typename E>
  void enumeration(const char* name, const E& v, bool fingerprinted) {
    if (fingerprinted) fp_u64(canon, name, static_cast<std::uint64_t>(v));
  }
};

}  // namespace

std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed,
                              std::string_view population) {
  return run_fingerprint(options, base_seed, population, {});
}

std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed,
                              std::string_view population,
                              std::string_view strategies) {
  std::string canon;
  canon.reserve(512);
  // Every fingerprint keeps the execution-path tag the sequential path of
  // earlier releases made necessary, so checkpoints written before its
  // removal still resume.
  canon += "path=parallel;";
  fp_u64(canon, "seed", base_seed);
  fp_u64(canon, "mle_solver", evt::kWeibullMleSolverRevision);
  visit_estimator_options(options, FingerprintVisitor{canon});
  canon += "population=";
  canon += population;
  if (!strategies.empty()) {
    canon += ";strategies=";
    canon += strategies;
  }
  return fnv1a(canon);
}

std::string encode_checkpoint(const RunCheckpoint& checkpoint) {
  const EstimationResult& r = checkpoint.result;
  MPE_EXPECTS(checkpoint.accepted_indices.size() == r.hyper_values.size());

  std::string out;
  out.reserve(512 + 16 * r.hyper_values.size());
  put_u32(out, kMagic);
  put_u32(out, kCheckpointVersion);
  put_u64(out, checkpoint.fingerprint);
  put_u64(out, checkpoint.base_seed);
  std::uint32_t flags = 0;
  if (checkpoint.parallel_path) flags |= 1u;
  if (checkpoint.complete) flags |= 2u;
  put_u32(out, flags);
  put_u64(out, checkpoint.next_index);
  for (std::uint64_t word : checkpoint.rng.s) put_u64(out, word);
  put_f64(out, checkpoint.rng.spare_normal);
  put_u8(out, checkpoint.rng.has_spare ? 1 : 0);

  put_f64(out, r.estimate);
  put_f64(out, r.ci.center);
  put_f64(out, r.ci.lower);
  put_f64(out, r.ci.upper);
  put_f64(out, r.ci.half_width);
  put_f64(out, r.ci.confidence);
  put_f64(out, r.relative_error_bound);
  put_u64(out, r.units_used);
  put_u64(out, r.hyper_samples);
  put_u8(out, r.converged ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(r.stop_reason));
  put_u64(out, r.degenerate_fits);

  put_u64(out, r.hyper_values.size());
  for (double v : r.hyper_values) put_f64(out, v);
  for (std::uint64_t idx : checkpoint.accepted_indices) put_u64(out, idx);

  const RunDiagnostics& d = r.diagnostics;
  put_u64(out, d.degenerate_fits);
  put_u64(out, 0);  // the removed PWM refit count's slot, kept for the format
  put_u64(out, d.constant_samples);
  put_u64(out, d.discarded_hyper_samples);
  put_u64(out, d.nonfinite_units);
  put_u8(out, d.small_population ? 1 : 0);
  put_u64(out, d.records.size());
  for (const Diagnostic& rec : d.records) {
    put_u8(out, static_cast<std::uint8_t>(rec.code));
    put_u8(out, static_cast<std::uint8_t>(rec.severity));
    put_string(out, rec.message);
    put_string(out, rec.context);
  }

  put_u32(out, util::crc32(out));
  return out;
}

RunCheckpoint decode_checkpoint(std::string_view bytes) {
  if (bytes.size() < 12) corrupt("shorter than magic + version + trailer");
  Reader header(bytes);
  if (header.u32() != kMagic) {
    throw Error(ErrorCode::kParse, "not a checkpoint file (bad magic)");
  }
  if (const std::uint32_t version = header.u32();
      version != kCheckpointVersion) {
    throw Error(ErrorCode::kParse, "unsupported checkpoint version",
                ErrorContext{}.kv("version", std::uint64_t{version}).str());
  }
  // Integrity first: the CRC covers everything before the 4-byte trailer, so
  // truncation and bit flips are all caught here, before any field is
  // trusted.
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  Reader trailer_reader(bytes.substr(bytes.size() - 4));
  const std::uint32_t stored_crc = trailer_reader.u32();
  if (util::crc32(body) != stored_crc) {
    corrupt("CRC mismatch",
            ErrorContext{}.kv("stored", std::uint64_t{stored_crc}).str());
  }

  Reader in(body);
  in.u32();  // magic, validated above
  in.u32();  // version, validated above

  RunCheckpoint c;
  c.fingerprint = in.u64();
  c.base_seed = in.u64();
  const std::uint32_t flags = in.u32();
  if ((flags & ~3u) != 0) corrupt("unknown flag bits");
  c.parallel_path = (flags & 1u) != 0;
  c.complete = (flags & 2u) != 0;
  c.next_index = in.u64();
  for (std::uint64_t& word : c.rng.s) word = in.u64();
  c.rng.spare_normal = in.f64();
  c.rng.has_spare = in.u8() != 0;

  EstimationResult& r = c.result;
  r.estimate = in.f64();
  r.ci.center = in.f64();
  r.ci.lower = in.f64();
  r.ci.upper = in.f64();
  r.ci.half_width = in.f64();
  r.ci.confidence = in.f64();
  r.relative_error_bound = in.f64();
  r.units_used = in.u64();
  r.hyper_samples = in.u64();
  r.converged = in.u8() != 0;
  const std::uint8_t stop = in.u8();
  if (stop > static_cast<std::uint8_t>(StopReason::kDataFault)) {
    corrupt("stop reason out of range");
  }
  r.stop_reason = static_cast<StopReason>(stop);
  r.degenerate_fits = in.u64();

  const std::uint64_t count = in.u64();
  if (count > kMaxHyperValues) corrupt("hyper-value count implausible");
  if (count != r.hyper_samples) {
    corrupt("hyper-value count disagrees with hyper_samples");
  }
  r.hyper_values.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const double v = in.f64();
    if (!std::isfinite(v)) corrupt("non-finite hyper-value");
    r.hyper_values.push_back(v);
  }
  c.accepted_indices.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    c.accepted_indices.push_back(in.u64());
  }

  RunDiagnostics& d = r.diagnostics;
  d.degenerate_fits = in.u64();
  in.u64();  // the removed PWM refit count, written 0
  d.constant_samples = in.u64();
  d.discarded_hyper_samples = in.u64();
  d.nonfinite_units = in.u64();
  d.small_population = in.u8() != 0;
  const std::uint64_t records = in.u64();
  if (records > kMaxRecords) corrupt("diagnostic record count implausible");
  d.records.reserve(records);
  for (std::uint64_t i = 0; i < records; ++i) {
    Diagnostic rec;
    const std::uint8_t code = in.u8();
    if (code > static_cast<std::uint8_t>(ErrorCode::kCorruptData)) {
      corrupt("diagnostic code out of range");
    }
    rec.code = static_cast<ErrorCode>(code);
    const std::uint8_t severity = in.u8();
    if (severity > static_cast<std::uint8_t>(Severity::kError)) {
      corrupt("diagnostic severity out of range");
    }
    rec.severity = static_cast<Severity>(severity);
    rec.message = in.str(kMaxStringLen);
    rec.context = in.str(kMaxStringLen);
    d.records.push_back(std::move(rec));
  }

  if (in.remaining() != 0) corrupt("trailing bytes after payload");
  return c;
}

void save_checkpoint_file(const std::string& path,
                          const RunCheckpoint& checkpoint) {
  util::atomic_write_file(path, encode_checkpoint(checkpoint));
}

RunCheckpoint load_checkpoint_file(const std::string& path) {
  return decode_checkpoint(util::read_file(path));
}

}  // namespace mpe::maxpower
