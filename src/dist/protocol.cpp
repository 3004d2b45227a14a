#include "dist/protocol.hpp"

#include "util/jsonl.hpp"
#include "util/wire.hpp"

namespace mpe::dist {

namespace {

namespace wire = util::wire;

util::JsonFields header(MessageKind kind) {
  return wire::header("mpe.dist", kProtocolVersion, to_string(kind));
}

maxpower::JobStatus required_status(const util::JsonValue& v) {
  const std::string status = wire::required_string(v, "status");
  const auto parsed = maxpower::job_status_from_name(status);
  if (!parsed) {
    throw Error(ErrorCode::kBadData, "unknown job status in result",
                ErrorContext{}.kv("status", status).str());
  }
  return *parsed;
}

}  // namespace

std::string_view to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kHello: return "hello";
    case MessageKind::kRequest: return "request";
    case MessageKind::kHeartbeat: return "heartbeat";
    case MessageKind::kShardResult: return "shard-result";
    case MessageKind::kShardLease: return "shard-lease";
    case MessageKind::kWait: return "wait";
    case MessageKind::kDrain: return "drain";
    case MessageKind::kAck: return "ack";
    case MessageKind::kRevoke: return "revoke";
    case MessageKind::kError: return "error";
  }
  return "error";
}

std::string encode_hello(std::string_view worker) {
  auto f = header(MessageKind::kHello);
  f.add("worker", worker);
  f.add("proto", kProtocolVersion);
  return f.object();
}

std::string encode_request(std::string_view worker) {
  auto f = header(MessageKind::kRequest);
  f.add("worker", worker);
  // Informative only: hello is the version gate.
  f.add("proto", kProtocolVersion);
  return f.object();
}

std::string encode_heartbeat(std::string_view worker, std::string_view job,
                             std::uint64_t shard) {
  auto f = header(MessageKind::kHeartbeat);
  f.add("worker", worker);
  f.add("job", job);
  f.add("shard", shard);
  return f.object();
}

std::string encode_shard_result(std::string_view worker, std::string_view job,
                                std::uint64_t shard, std::uint64_t lo,
                                std::uint64_t hi, maxpower::JobStatus status,
                                ErrorCode error,
                                std::string_view samples_json) {
  auto f = header(MessageKind::kShardResult);
  f.add("worker", worker);
  f.add("job", job);
  f.add("shard", shard);
  f.add("lo", lo);
  f.add("hi", hi);
  f.add("status", maxpower::to_string(status));
  if (error != ErrorCode::kOk) f.add("error", mpe::to_string(error));
  if (status == maxpower::JobStatus::kDone) {
    f.add("samples", samples_json);  // a JSON array shipped as a string
  }
  return f.object();
}

std::string encode_shard_lease(std::string_view job, std::string_view spec_json,
                               std::uint64_t shard, std::uint64_t lo,
                               std::uint64_t hi, std::uint64_t lease_ms,
                               std::uint64_t job_deadline_ms) {
  auto f = header(MessageKind::kShardLease);
  f.add("job", job);
  f.add("spec", spec_json);
  f.add("shard", shard);
  f.add("lo", lo);
  f.add("hi", hi);
  f.add("lease_ms", lease_ms);
  if (job_deadline_ms > 0) f.add("job_deadline_ms", job_deadline_ms);
  return f.object();
}

std::string encode_wait(std::uint64_t ms) {
  auto f = header(MessageKind::kWait);
  f.add("ms", ms);
  return f.object();
}

std::string encode_drain() { return header(MessageKind::kDrain).object(); }

std::string encode_ack() { return header(MessageKind::kAck).object(); }

std::string encode_revoke(std::string_view job) {
  auto f = header(MessageKind::kRevoke);
  f.add("job", job);
  return f.object();
}

std::string encode_error(std::string_view detail) {
  auto f = header(MessageKind::kError);
  f.add("detail", detail);
  return f.object();
}

Message decode_message(std::string_view line) {
  const util::JsonValue v = wire::parse_frame(line, "dist message");
  const std::string type = wire::required_string(v, "type");
  const auto kind =
      wire::kind_from_name(type, MessageKind::kError,
                           [](MessageKind k) { return to_string(k); });
  if (!kind) {
    throw Error(ErrorCode::kBadData, "unknown dist message type",
                ErrorContext{}.kv("type", type).str());
  }
  Message msg;
  msg.kind = *kind;
  switch (msg.kind) {
    case MessageKind::kHello:
      msg.worker = wire::required_string(v, "worker");
      msg.proto = wire::number_or(v, "proto", 0);
      break;
    case MessageKind::kRequest:
      msg.worker = wire::required_string(v, "worker");
      break;
    case MessageKind::kHeartbeat:
      msg.worker = wire::required_string(v, "worker");
      msg.job = wire::required_string(v, "job");
      msg.shard = wire::required_number(v, "shard");
      break;
    case MessageKind::kShardResult:
      msg.worker = wire::required_string(v, "worker");
      msg.job = wire::required_string(v, "job");
      msg.shard = wire::required_number(v, "shard");
      msg.lo = wire::required_number(v, "lo");
      msg.hi = wire::required_number(v, "hi");
      msg.shard_status = required_status(v);
      if (const auto* e = v.find("error"); e != nullptr && e->is_string()) {
        msg.shard_error = error_code_from_string(e->as_string());
      }
      if (msg.shard_status == maxpower::JobStatus::kDone) {
        msg.samples = wire::required_string(v, "samples");
      }
      if (msg.hi < msg.lo) {
        throw Error(ErrorCode::kBadData, "shard-result range is inverted");
      }
      break;
    case MessageKind::kShardLease:
      msg.job = wire::required_string(v, "job");
      msg.spec = wire::required_string(v, "spec");
      msg.shard = wire::required_number(v, "shard");
      msg.lo = wire::required_number(v, "lo");
      msg.hi = wire::required_number(v, "hi");
      msg.ms = wire::number_or(v, "lease_ms", 0);
      msg.job_deadline_ms = wire::number_or(v, "job_deadline_ms", 0);
      if (msg.ms == 0) {
        throw Error(ErrorCode::kBadData, "shard-lease without lease_ms");
      }
      if (msg.hi <= msg.lo) {
        throw Error(ErrorCode::kBadData, "shard-lease range is empty");
      }
      break;
    case MessageKind::kWait:
      msg.ms = wire::number_or(v, "ms", 0);
      break;
    case MessageKind::kRevoke:
      msg.job = wire::required_string(v, "job");
      break;
    case MessageKind::kError:
      if (const auto* d = v.find("detail"); d != nullptr && d->is_string()) {
        msg.detail = d->as_string();
      }
      break;
    case MessageKind::kDrain:
    case MessageKind::kAck:
      break;
  }
  return msg;
}

}  // namespace mpe::dist
