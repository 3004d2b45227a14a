// Wire protocol of the distributed campaign control plane (one JSON object
// per line over dist/transport channels, schema tag "mpe.dist" v2).
//
// The one unit of leased work is a shard: a contiguous wave-index range
// [lo, hi) of one job (maxpower/shard). A whole job is a one-shard
// partition.
//
// Worker -> coordinator:
//   hello      {worker, proto}        introduce + version handshake; the
//                                     single version gate: a proto other
//                                     than kProtocolVersion is refused
//                                     with `error`
//   request    {worker, proto}        ask for a lease (proto is informative
//                                     and not decoded)
//   heartbeat  {worker, job, shard}   renew the lease on one shard of `job`
//   shard-result {worker, job, shard, lo, hi, status, [error], [samples]}
//                                     report a terminal shard outcome;
//                                     `samples` (a JSON array shipped as a
//                                     string, like lease specs) carries the
//                                     hi-lo hyper-sample records for done
//                                     shards
//
// Coordinator -> worker:
//   shard-lease {job, spec, shard, lo, hi, lease_ms, [job_deadline_ms]}
//                                     grant wave-index range [lo, hi) of
//                                     `spec` (a manifest-format job object,
//                                     shipped as a string); heartbeat the
//                                     shard at least every lease_ms
//   wait       {ms}                   nothing grantable now; retry in ~ms
//   drain      {}                     no more work ever; exit cleanly
//   ack        {}                     heartbeat/result accepted
//   revoke     {job}                  lease no longer held (expired and
//                                     reassigned, or job already done):
//                                     stop work, keep the checkpoint
//   error      {detail}               protocol violation; peer should drop.
//                                     An error reply to hello is final.
//
// Exactly-once interplay: `shard-result` is delivered at-least-once
// (workers re-send after reconnects until acked) and the coordinator
// dedupes by shard state before appending to the ledger — together that
// yields exactly-once ledger effects. Sample payload doubles survive the
// round trip bit-exactly (util/jsonl renders shortest round-trippable
// form).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "maxpower/campaign.hpp"

namespace mpe::dist {

/// Protocol revision; bumped on any incompatible message change. v2 made
/// shard leases the only lease; a peer speaking any other revision is
/// refused at hello.
inline constexpr std::uint64_t kProtocolVersion = 2;

enum class MessageKind : std::uint8_t {
  kHello,
  kRequest,
  kHeartbeat,
  kShardResult,
  kShardLease,
  kWait,
  kDrain,
  kAck,
  kRevoke,
  kError,
};

std::string_view to_string(MessageKind kind);

/// One decoded message. Only the fields relevant to `kind` are meaningful.
struct Message {
  MessageKind kind = MessageKind::kError;
  std::string worker;             ///< hello/request/heartbeat/shard-result
  std::string job;                ///< heartbeat/shard-*/revoke
  std::string spec;               ///< shard-lease: manifest-format job JSON
  std::string detail;             ///< error
  std::uint64_t proto = 0;        ///< hello
  std::uint64_t ms = 0;           ///< shard-lease: lease_ms; wait: backoff
  std::uint64_t job_deadline_ms = 0;  ///< shard-lease: 0 = no job deadline
  std::uint64_t shard = 0;        ///< shard-lease/shard-result/heartbeat
  std::uint64_t lo = 0;           ///< shard-lease/shard-result
  std::uint64_t hi = 0;           ///< shard-lease/shard-result
  std::string samples;            ///< shard-result: JSON array as a string
  maxpower::JobStatus shard_status =
      maxpower::JobStatus::kFailed;  ///< shard-result
  ErrorCode shard_error = ErrorCode::kOk;  ///< shard-result
};

std::string encode_hello(std::string_view worker);
std::string encode_request(std::string_view worker);
/// Heartbeat for a shard lease; the shard index tells the coordinator
/// which holder slot to renew (one worker may only hold one lease, but two
/// workers may hold the same shard during speculation).
std::string encode_heartbeat(std::string_view worker, std::string_view job,
                             std::uint64_t shard);
/// Terminal shard outcome. `samples_json` is the encoded shard-sample array
/// (required for done shards, ignored otherwise); `error` names the failure
/// for failed shards.
std::string encode_shard_result(std::string_view worker, std::string_view job,
                                std::uint64_t shard, std::uint64_t lo,
                                std::uint64_t hi, maxpower::JobStatus status,
                                ErrorCode error,
                                std::string_view samples_json);
std::string encode_shard_lease(std::string_view job, std::string_view spec_json,
                               std::uint64_t shard, std::uint64_t lo,
                               std::uint64_t hi, std::uint64_t lease_ms,
                               std::uint64_t job_deadline_ms);
std::string encode_wait(std::uint64_t ms);
std::string encode_drain();
std::string encode_ack();
std::string encode_revoke(std::string_view job);
std::string encode_error(std::string_view detail);

/// Parses and validates one message line. Throws mpe::Error(kParse) on
/// malformed JSON, kBadData on a missing/mistyped field or unknown kind.
Message decode_message(std::string_view line);

}  // namespace mpe::dist
