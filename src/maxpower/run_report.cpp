#include "maxpower/run_report.hpp"

#include <ostream>
#include <string>

#include "util/jsonl.hpp"
#include "util/status.hpp"

namespace mpe::maxpower {

namespace {

/// Envelope prefix shared by every report line. `seq` is the line number
/// within this report (0-based, gap-free — test_run_report enforces it).
util::JsonFields envelope(std::uint64_t seq, std::string_view type) {
  util::JsonFields f;
  f.add("schema", "mpe.run_report")
      .add("v", kRunReportSchemaVersion)
      .add("seq", seq)
      .add("type", type);
  return f;
}

void emit(std::ostream& out, const util::JsonFields& fields) {
  out << '{' << fields.body() << "}\n";
  if (!out.good()) {
    throw Error(ErrorCode::kIo, "run report write failed");
  }
}

std::string_view interval_name(IntervalKind kind) {
  switch (kind) {
    case IntervalKind::kStudentT: return "student-t";
    case IntervalKind::kBootstrap: return "bootstrap";
  }
  return "unknown";
}

/// Non-empty histogram buckets as a JSON array of [bucket, count] pairs:
/// compact, and the log2 bucket meaning is documented with HistogramData.
std::string buckets_json(const util::HistogramData& h) {
  std::string out = "[";
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    if (out.size() > 1) out += ',';
    out += '[' + std::to_string(b) + ',' + std::to_string(h.buckets[b]) + ']';
  }
  out += ']';
  return out;
}

std::string hyper_values_json(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    if (out.size() > 1) out += ',';
    out += util::json_number(v);
  }
  out += ']';
  return out;
}

}  // namespace

void write_run_report(std::ostream& out, const EstimationResult& result,
                      const EstimatorOptions& options,
                      const RunReportOptions& report) {
  std::uint64_t seq = 0;

  {
    util::JsonFields f = envelope(seq++, "run_header");
    f.add("epsilon", options.epsilon)
        .add("confidence", options.confidence)
        .add("interval", interval_name(options.interval))
        .add("n", static_cast<std::uint64_t>(options.hyper.n))
        .add("m", static_cast<std::uint64_t>(options.hyper.m))
        .add("min_hyper_samples",
             static_cast<std::uint64_t>(options.min_hyper_samples))
        .add("max_hyper_samples",
             static_cast<std::uint64_t>(options.max_hyper_samples))
        .add("finite_correction", options.hyper.finite_correction)
        .add("population", report.population);
    if (report.tracer != nullptr) {
      f.add("trace_total_events", report.tracer->total_events())
          .add("trace_dropped", report.tracer->dropped());
    }
    emit(out, f);
  }

  if (report.tracer != nullptr) {
    for (const util::TraceEvent& e : report.tracer->events()) {
      util::JsonFields f = envelope(seq++, "event");
      f.add("t_seq", e.seq)
          .add("name", e.name)
          .add("wall_ns", e.wall_ns);
      if (e.dur_ns >= 0) f.add("dur_ns", e.dur_ns);
      if (e.cpu_ns >= 0) f.add("cpu_ns", e.cpu_ns);
      if (!e.fields.empty()) f.raw("data", "{" + e.fields + "}");
      emit(out, f);
    }
  }

  {
    util::JsonFields f = envelope(seq++, "diagnostics");
    f.raw("diagnostics", result.diagnostics.to_json());
    emit(out, f);
  }

  if (report.metrics != nullptr) {
    const util::MetricsSnapshot snap = report.metrics->snapshot();
    for (const auto& s : snap.series) {
      util::JsonFields f = envelope(seq++, "metric");
      f.add("kind", util::to_string(s.kind))
          .add("name", s.name)
          .add("labels", s.labels)
          .add("value", s.value);
      if (s.kind == util::MetricKind::kHistogram) {
        f.add("count", s.histogram.count)
            .add("sum", s.histogram.sum)
            .add("mean", s.histogram.mean())
            .raw("buckets", buckets_json(s.histogram));
      }
      emit(out, f);
    }
  }

  {
    util::JsonFields f = envelope(seq++, "result");
    f.add("estimate", result.estimate)
        .add("ci_lower", result.ci.lower)
        .add("ci_upper", result.ci.upper)
        .add("ci_confidence", result.ci.confidence)
        .add("relative_error_bound", result.relative_error_bound)
        .add("units_used", static_cast<std::uint64_t>(result.units_used))
        .add("hyper_samples",
             static_cast<std::uint64_t>(result.hyper_samples))
        .add("converged", result.converged)
        .add("stop_reason", to_string(result.stop_reason))
        .add("degenerate_fits",
             static_cast<std::uint64_t>(result.degenerate_fits))
        .raw("hyper_values", hyper_values_json(result.hyper_values));
    emit(out, f);
  }
}

RunDiagnostics run_diagnostics_from_json(std::string_view json) {
  const util::JsonValue root = util::parse_json(json);
  RunDiagnostics d;
  auto count = [&root](std::string_view key) -> std::size_t {
    const util::JsonValue* v = root.find(key);
    return (v != nullptr && v->is_number())
               ? static_cast<std::size_t>(v->as_number())
               : 0;
  };
  d.degenerate_fits = count("degenerate_fits");
  d.constant_samples = count("constant_samples");
  d.discarded_hyper_samples = count("discarded_hyper_samples");
  d.nonfinite_units = count("nonfinite_units");
  if (const util::JsonValue* v = root.find("small_population");
      v != nullptr && v->is_bool()) {
    d.small_population = v->as_bool();
  }
  if (const util::JsonValue* recs = root.find("records");
      recs != nullptr && recs->is_array()) {
    for (const util::JsonValue& r : recs->as_array()) {
      if (!r.is_object()) continue;
      Diagnostic rec;
      if (const util::JsonValue* v = r.find("severity");
          v != nullptr && v->is_string()) {
        rec.severity = severity_from_string(v->as_string());
      }
      if (const util::JsonValue* v = r.find("code");
          v != nullptr && v->is_string()) {
        rec.code = error_code_from_string(v->as_string());
      }
      if (const util::JsonValue* v = r.find("message");
          v != nullptr && v->is_string()) {
        rec.message = v->as_string();
      }
      if (const util::JsonValue* v = r.find("context");
          v != nullptr && v->is_string()) {
        rec.context = v->as_string();
      }
      if (d.records.size() < RunDiagnostics::kMaxRecords) {
        d.records.push_back(std::move(rec));
      }
    }
  }
  return d;
}

}  // namespace mpe::maxpower
