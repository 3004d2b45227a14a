// Schema contract of the JSONL run report (stable envelope + field names,
// gap-free sequence numbers, version pinning), RunDiagnostics round-trip,
// and the observability no-perturbation guarantee: results are bit-identical
// with metrics and tracing on or off, at any thread count.
#include "maxpower/run_report.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "maxpower/estimator.hpp"
#include "stats/weibull.hpp"
#include "util/jsonl.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;
using mpe::util::JsonValue;
using mpe::util::parse_json;

mpe::vec::FinitePopulation weibull_population(std::size_t size,
                                              std::uint64_t seed) {
  const mpe::stats::ReversedWeibull g(3.0, 1.0, 10.0);
  mpe::Rng rng(seed);
  std::vector<double> vals(size);
  for (auto& v : vals) v = g.sample(rng);
  return mpe::vec::FinitePopulation(std::move(vals), "synthetic weibull");
}

/// One traced, metered run plus its serialized report, parsed line by line.
struct ReportFixture {
  mp::EstimationResult result;
  std::vector<JsonValue> lines;

  explicit ReportFixture(bool with_metrics = true) {
    auto pop = weibull_population(20000, 101);
    mp::EstimatorOptions opt;
    mpe::util::Tracer tracer(256);
    opt.tracer = &tracer;
    // Library instrumentation reports to the global registry; enable it for
    // the duration of the run so the report has metric lines to carry.
    auto& reg = mpe::util::MetricRegistry::global();
    const bool was_enabled = reg.enabled();
    reg.enable(true);
    result = mp::estimate_max_power(pop, opt, std::uint64_t{14});
    reg.enable(was_enabled);

    mp::RunReportOptions ropt;
    ropt.tracer = &tracer;
    if (with_metrics) ropt.metrics = &reg;
    const std::string population = pop.description();  // outlives ropt
    ropt.population = population;
    std::ostringstream out;
    mp::write_run_report(out, result, opt, ropt);
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line)) lines.push_back(parse_json(line));
  }
};

// Renaming or removing an emitted field breaks report consumers; this pin
// forces whoever does it to bump kRunReportSchemaVersion (and update the
// golden field sets below) deliberately.
TEST(RunReport, SchemaVersionIsPinned) {
  EXPECT_EQ(mp::kRunReportSchemaVersion, 1);
}

TEST(RunReport, EnvelopeOnEveryLine) {
  const ReportFixture fx;
  ASSERT_FALSE(fx.lines.empty());
  for (std::size_t i = 0; i < fx.lines.size(); ++i) {
    const JsonValue& v = fx.lines[i];
    ASSERT_TRUE(v.is_object()) << "line " << i;
    EXPECT_EQ(v.find("schema")->as_string(), "mpe.run_report");
    EXPECT_EQ(v.find("v")->as_number(), mp::kRunReportSchemaVersion);
    // seq is gap-free from 0: a consumer can detect truncated reports.
    EXPECT_EQ(v.find("seq")->as_number(), static_cast<double>(i));
    ASSERT_TRUE(v.has("type"));
  }
  EXPECT_EQ(fx.lines.front().find("type")->as_string(), "run_header");
  EXPECT_EQ(fx.lines.back().find("type")->as_string(), "result");
}

// Golden field sets, one per line type. These are the schema: a missing
// name here means a consumer-visible field was renamed or dropped — bump
// kRunReportSchemaVersion when changing them. (New fields are additive and
// must simply be appended here.)
TEST(RunReport, GoldenFieldNamesPerType) {
  const std::vector<std::string> envelope{"schema", "seq", "type", "v"};
  auto with_envelope = [&envelope](std::vector<std::string> extra) {
    extra.insert(extra.end(), envelope.begin(), envelope.end());
    std::sort(extra.begin(), extra.end());
    return extra;
  };
  const auto header_fields = with_envelope(
      {"epsilon", "confidence", "interval", "n", "m", "min_hyper_samples",
       "max_hyper_samples", "finite_correction", "population",
       "trace_total_events", "trace_dropped"});
  const auto diagnostics_fields = with_envelope({"diagnostics"});
  const auto metric_fields = with_envelope(
      {"kind", "name", "labels", "value"});
  const auto metric_histogram_fields = with_envelope(
      {"kind", "name", "labels", "value", "count", "sum", "mean", "buckets"});
  const auto result_fields = with_envelope(
      {"estimate", "ci_lower", "ci_upper", "ci_confidence",
       "relative_error_bound", "units_used", "hyper_samples", "converged",
       "stop_reason", "degenerate_fits", "hyper_values"});

  const ReportFixture fx;
  std::set<std::string> seen_types;
  for (const JsonValue& v : fx.lines) {
    const std::string type = v.find("type")->as_string();
    seen_types.insert(type);
    if (type == "run_header") {
      EXPECT_EQ(v.keys(), header_fields);
    } else if (type == "diagnostics") {
      EXPECT_EQ(v.keys(), diagnostics_fields);
    } else if (type == "metric") {
      const bool hist = v.find("kind")->as_string() == "histogram";
      EXPECT_EQ(v.keys(), hist ? metric_histogram_fields : metric_fields);
    } else if (type == "result") {
      EXPECT_EQ(v.keys(), result_fields);
    } else {
      // Events: envelope + t_seq/name/wall_ns, optional dur_ns/cpu_ns/data.
      ASSERT_EQ(type, "event");
      EXPECT_TRUE(v.has("t_seq"));
      EXPECT_TRUE(v.has("name"));
      EXPECT_TRUE(v.has("wall_ns"));
    }
  }
  EXPECT_EQ(seen_types, (std::set<std::string>{
                            "run_header", "event", "diagnostics", "metric",
                            "result"}));
}

TEST(RunReport, EventsPreserveTracerOrderAndCarryHyperSamples) {
  const ReportFixture fx;
  double prev_t_seq = -1.0;
  std::size_t hyper_events = 0;
  bool saw_run_config = false;
  bool saw_run_span = false;
  for (const JsonValue& v : fx.lines) {
    if (v.find("type")->as_string() != "event") continue;
    const double t_seq = v.find("t_seq")->as_number();
    EXPECT_GT(t_seq, prev_t_seq);  // tracer order, no duplicates
    prev_t_seq = t_seq;
    const std::string name = v.find("name")->as_string();
    if (name == "run_config") saw_run_config = true;
    if (name == "run") {
      saw_run_span = true;
      EXPECT_GE(v.find("dur_ns")->as_number(), 0.0);
    }
    if (name == "hyper_sample") {
      ++hyper_events;
      const JsonValue* data = v.find("data");
      ASSERT_NE(data, nullptr);
      EXPECT_TRUE(data->has("k"));
      EXPECT_TRUE(data->has("estimate"));
      EXPECT_TRUE(data->has("mle_converged"));
    }
  }
  EXPECT_TRUE(saw_run_config);
  EXPECT_TRUE(saw_run_span);
  EXPECT_EQ(hyper_events, fx.result.hyper_samples);
}

TEST(RunReport, ResultLineMatchesEstimationResult) {
  const ReportFixture fx;
  const JsonValue& line = fx.lines.back();
  EXPECT_EQ(line.find("estimate")->as_number(), fx.result.estimate);
  EXPECT_EQ(line.find("ci_lower")->as_number(), fx.result.ci.lower);
  EXPECT_EQ(line.find("ci_upper")->as_number(), fx.result.ci.upper);
  EXPECT_EQ(line.find("units_used")->as_number(),
            static_cast<double>(fx.result.units_used));
  EXPECT_EQ(line.find("converged")->as_bool(), fx.result.converged);
  ASSERT_TRUE(line.find("hyper_values")->is_array());
  const auto& values = line.find("hyper_values")->as_array();
  ASSERT_EQ(values.size(), fx.result.hyper_values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].as_number(), fx.result.hyper_values[i]);
  }
}

TEST(RunReport, MetricLinesIncludeEstimatorSeries) {
  const ReportFixture fx;
  std::set<std::string> names;
  for (const JsonValue& v : fx.lines) {
    if (v.find("type")->as_string() == "metric") {
      names.insert(v.find("name")->as_string());
    }
  }
  EXPECT_TRUE(names.count("mpe_estimator_runs_total"));
  EXPECT_TRUE(names.count("mpe_estimator_hyper_samples_total"));
  EXPECT_TRUE(names.count("mpe_estimator_run_wall_ns"));
}

TEST(RunReport, GlobalMetricsFlowIntoReport) {
  auto& reg = mpe::util::MetricRegistry::global();
  reg.reset();
  const bool was_enabled = reg.enabled();
  reg.enable(true);
  auto pop = weibull_population(20000, 101);
  mp::EstimatorOptions opt;
  const auto result = mp::estimate_max_power(pop, opt, std::uint64_t{14});
  reg.enable(was_enabled);

  mp::RunReportOptions ropt;
  ropt.metrics = &reg;
  std::ostringstream out;
  mp::write_run_report(out, result, opt, ropt);

  std::set<std::string> names;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue v = parse_json(line);
    if (v.find("type")->as_string() == "metric") {
      names.insert(v.find("name")->as_string());
    }
  }
  EXPECT_TRUE(names.count("mpe_estimator_runs_total"));
  EXPECT_TRUE(names.count("mpe_estimator_hyper_samples_total"));
  EXPECT_TRUE(names.count("mpe_mle_fits_total"));
  EXPECT_TRUE(names.count("mpe_hyper_draws_total"));
  EXPECT_TRUE(names.count("mpe_population_units_total"));
}

TEST(RunReport, DiagnosticsJsonRoundTrips) {
  mp::RunDiagnostics d;
  d.degenerate_fits = 3;
  d.constant_samples = 2;
  d.discarded_hyper_samples = 4;
  d.nonfinite_units = 17;
  d.small_population = true;
  d.note(mpe::Severity::kWarning, mpe::ErrorCode::kBadData,
         "message with \"quotes\"", "k=v");
  d.note(mpe::Severity::kError, mpe::ErrorCode::kFaultInjected, "fault", "");

  const mp::RunDiagnostics back = mp::run_diagnostics_from_json(d.to_json());
  EXPECT_EQ(back.degenerate_fits, d.degenerate_fits);
  // Schema v1 keeps the removed PWM refit count, always 0.
  EXPECT_NE(d.to_json().find("\"pwm_refits\":0,"), std::string::npos);
  EXPECT_EQ(back.constant_samples, d.constant_samples);
  EXPECT_EQ(back.discarded_hyper_samples, d.discarded_hyper_samples);
  EXPECT_EQ(back.nonfinite_units, d.nonfinite_units);
  EXPECT_EQ(back.small_population, d.small_population);
  ASSERT_EQ(back.records.size(), d.records.size());
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    EXPECT_EQ(back.records[i].severity, d.records[i].severity);
    EXPECT_EQ(back.records[i].code, d.records[i].code);
    EXPECT_EQ(back.records[i].message, d.records[i].message);
    EXPECT_EQ(back.records[i].context, d.records[i].context);
  }
}

TEST(RunReport, DiagnosticsFromJsonRejectsMalformed) {
  EXPECT_THROW(mp::run_diagnostics_from_json("{"), mpe::Error);
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

// The acceptance gate of the observability layer: instrumentation is a pure
// observer. Turning on the global metrics registry and a tracer must leave
// every result bit-identical to the uninstrumented run, at every thread
// count (worker threads emit no trace events; metrics never touch RNG).
TEST(RunReport, InstrumentationDoesNotPerturbResults) {
  auto pop = weibull_population(40000, 31);
  const std::uint64_t seed = 77;

  mp::EstimatorOptions plain;
  std::vector<mp::EstimationResult> baselines;
  for (unsigned threads : {1u, 2u, 8u}) {
    mp::ParallelOptions par;
    par.threads = threads;
    baselines.push_back(mp::estimate_max_power(pop, plain, seed, par));
  }

  auto& reg = mpe::util::MetricRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.enable(true);
  std::size_t i = 0;
  for (unsigned threads : {1u, 2u, 8u}) {
    mpe::util::Tracer tracer(1024);
    mp::EstimatorOptions instrumented;
    instrumented.tracer = &tracer;
    mp::ParallelOptions par;
    par.threads = threads;
    const auto r = mp::estimate_max_power(pop, instrumented, seed, par);
    expect_identical(baselines[i], r);
    EXPECT_EQ(baselines[0].estimate, r.estimate);  // and across counts
    EXPECT_GT(tracer.total_events(), 0u);
    ++i;
  }
  reg.enable(was_enabled);

  // And against a pinned golden on a second population.
  auto pop2 = weibull_population(20000, 101);
  const auto plain_r = mp::estimate_max_power(pop2, plain, std::uint64_t{14});
  reg.enable(true);
  mpe::util::Tracer tracer(1024);
  mp::EstimatorOptions instrumented;
  instrumented.tracer = &tracer;
  const auto traced_r =
      mp::estimate_max_power(pop2, instrumented, std::uint64_t{14});
  reg.enable(was_enabled);
  expect_identical(plain_r, traced_r);
  EXPECT_EQ(traced_r.estimate, 9.8642527418549424);  // the seed golden
}

TEST(RunReport, WriteFailureThrowsIoError) {
  const ReportFixture fx;
  std::ostringstream out;
  out.setstate(std::ios::failbit);
  mp::EstimatorOptions opt;
  EXPECT_THROW(mp::write_run_report(out, fx.result, opt, {}), mpe::Error);
}

}  // namespace
