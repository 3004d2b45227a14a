// mpe_cli — command-line front end to the library:
//
//   mpe_cli estimate  --circuit c880 [--epsilon 0.05] [--confidence 0.9]
//                     [--tprob 0.5] [--seed 1]
//   mpe_cli report    --circuit c3540 | --bench f.bench | --verilog f.v
//   mpe_cli convert   --in f.bench --out f.v       (format by extension)
//   mpe_cli timing    --circuit c1908 [--model zero|unit|loaded]
//   mpe_cli vcd       --circuit c432 --out wave.vcd [--cycles 4] [--seed 1]
//   mpe_cli maxdelay  --circuit c1908 [--epsilon 0.08]
//   mpe_cli campaign  --manifest jobs.jsonl --state-dir dir [--retries N]
//
// Distributed campaigns (docs/ROBUSTNESS.md, "Distributed campaigns"):
//
//   mpe_cli campaign-coordinator --manifest jobs.jsonl --state-dir dir
//                                --socket /path/sock [--lease-ms N] ...
//   mpe_cli campaign-worker      --socket /path/sock --state-dir dir
//                                --worker-id w0 [--heartbeat-ms N] ...
//   mpe_cli ledger-audit         --report campaign.jsonl [--merged-out F|-]
//
// Circuits come from the built-in presets (--circuit), an ISCAS-85 .bench
// file (--bench), or a structural Verilog file (--verilog).
//
// SIGINT/SIGTERM trip a cooperative cancellation token: in-flight
// estimation winds down at the next hyper-sample boundary, the final
// checkpoint and any report output are flushed, and the process exits with
// the cancelled exit code (8). A second signal force-exits immediately.
// The serving loops (serve, campaign-coordinator) block in poll(2), so the
// handler also writes their waker.
#include <sys/stat.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>

#include "mpe.hpp"

namespace {

using namespace mpe;

// Signal -> cooperative cancellation. The token is created live before
// main() dispatches, so the handler only ever touches a fully constructed
// shared atomic flag (an async-signal-safe store).
util::CancellationToken g_cancel = util::CancellationToken::create();
volatile std::sig_atomic_t g_signal_count = 0;
/// The serving loop's waker, once one exists (a lock-free atomic).
std::atomic<const dist::Waker*> g_waker{nullptr};

void handle_signal(int) {
  const std::sig_atomic_t prior = g_signal_count;
  g_signal_count = prior + 1;  // ++ on volatile is deprecated in C++20
  if (prior > 0) std::_Exit(8 /* exit_code(kCancelled) */);
  g_cancel.request_stop();
  if (const dist::Waker* waker = g_waker.load()) waker->wake();  // write(2)
}

/// The waker the signal handler writes for the serving loops. It lives as
/// long as the process (never closed), so a late signal can never write to
/// a closed or reused fd.
const dist::Waker* signal_waker() {
  static const dist::Waker* const waker = new dist::Waker();
  g_waker.store(waker);
  return waker;
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: mpe_cli <estimate|report|convert|timing|vcd|maxdelay|campaign|"
      "campaign-coordinator|campaign-worker|ledger-audit|serve|submit> "
      "[flags]\n"
      "  common circuit flags: --circuit <preset> | --bench <file> | "
      "--verilog <file>, --seed N\n"
      "  estimate: --epsilon E --confidence L [--tprob P | --activity A]\n"
      "            [--deadline-ms N] [--fit-policy use|redraw]\n"
      "            [--stop t|bootstrap]\n"
      "            [--max-hyper K] [--metrics-out FILE|-] [--trace]\n"
      "            [--checkpoint FILE [--checkpoint-every K]]\n"
      "            [--threads N] [--delay zero|unit|loaded]\n"
      "  convert : --in <file.bench|file.v> --out <file.bench|file.v>\n"
      "  timing  : --model zero|unit|loaded\n"
      "  vcd     : --out <file.vcd> [--cycles N]\n"
      "  maxdelay: --epsilon E\n"
      "  campaign: --manifest <jobs.jsonl> --state-dir <dir> [--report F]\n"
      "            [--retries N] [--threads N] [--deadline-ms N]\n"
      "            [--checkpoint-every K]\n"
      "  campaign-coordinator: --manifest <jobs.jsonl> --state-dir <dir>\n"
      "            --socket <path> | --tcp-port N [--host H]\n"
      "            [--report F] [--lease-ms N] [--job-deadline-ms N]\n"
      "            [--max-assign N] [--shard-size K] [--straggler-ms N]\n"
      "  campaign-worker: --socket <path> | --tcp HOST:PORT\n"
      "            --state-dir <dir> --worker-id ID\n"
      "            [--heartbeat-ms N] [--checkpoint-every K]\n"
      "            (--threads N is accepted and has no effect: a shard\n"
      "            computes on one thread)\n"
      "  ledger-audit: --report <campaign.jsonl> [--merged-out FILE|-]\n"
      "            [--strict]\n"
      "  serve   : --socket <path> and/or --tcp-port N [--host H]\n"
      "            [--state-dir DIR] [--cache-cap N] [--max-active N]\n"
      "            [--max-queue N] [--queue-per-client N] [--threads N]\n"
      "            [--job-deadline-ms N] [--max-deadline-ms N]\n"
      "            [--drain-grace-ms N] [--trace-capacity N]\n"
      "            fleet mode (jobs run on campaign workers):\n"
      "            --fleet --worker-socket <path> | --worker-port N\n"
      "            [--worker-host H] [--lease-ms N] [--max-assign N]\n"
      "            [--shard-size K] [--straggler-ms N]\n"
      "  submit  : --socket <path> | --port N [--host H]\n"
      "            --job ID + estimate-style job flags, or --manifest F\n"
      "            [--deadline-ms N] [--report-dir DIR] [--timeout-ms N]\n"
      "            [--events] | --stats | --scrape\n"
      "  --shard-size K (campaign-coordinator, serve --fleet): attempts\n"
      "            per shard lease, K >= 1 (default 16)\n"
      "exit codes: 0 ok, 1 non-convergence, 2 usage, 3 parse, 4 io,\n"
      "            5 bad data, 6 precondition, 7 deadline, 8 cancelled,\n"
      "            9 injected fault, 10 internal, 11 corrupt data,\n"
      "            12 jobs failed, 13 resource exhausted\n");
  std::exit(exit_code(ErrorCode::kUsage));
}

circuit::Netlist load_circuit(const Cli& cli, std::uint64_t seed) {
  if (cli.has("bench")) return circuit::read_bench_file(cli.get("bench", ""));
  if (cli.has("verilog")) {
    return circuit::read_verilog_file(cli.get("verilog", ""));
  }
  return gen::build_preset(cli.get("circuit", "c432"), seed);
}

int cmd_estimate(const Cli& cli) {
  cli.check_known({"circuit", "bench", "verilog", "seed", "epsilon",
                   "confidence", "tprob", "activity", "max-hyper",
                   "fit-policy", "stop", "deadline-ms",
                   "metrics-out", "trace", "checkpoint", "checkpoint-every",
                   "threads", "delay"});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto netlist = load_circuit(cli, seed);

  // --delay picks the simulation delay model for the streaming population
  // (default loaded, matching prior releases). A zero-delay population
  // evaluates its batches on the compiled gate tape; any other delay model
  // simulates unit by unit. Both yield the same value stream for a seed.
  sim::PowerEvalOptions eval_opt;
  const std::string delay_name = cli.get("delay", "loaded");
  const auto delay = sim::delay_model_from_name(delay_name);
  if (!delay) {
    throw Error(ErrorCode::kUsage, "unknown --delay (zero|unit|loaded)",
                ErrorContext{}.kv("value", delay_name).str());
  }
  eval_opt.delay_model = *delay;
  sim::CyclePowerEvaluator evaluator(netlist, eval_opt);

  std::unique_ptr<vec::PairGenerator> pairs;
  if (cli.has("tprob")) {
    pairs = std::make_unique<vec::TransitionProbPairGenerator>(
        netlist.num_inputs(), cli.get_double("tprob", 0.5));
  } else if (cli.has("activity")) {
    pairs = std::make_unique<vec::HighActivityPairGenerator>(
        netlist.num_inputs(), cli.get_double("activity", 0.3));
  } else {
    pairs = std::make_unique<vec::UniformPairGenerator>(netlist.num_inputs());
  }
  vec::StreamingPopulation population(*pairs, evaluator);

  maxpower::EstimatorOptions options;
  options.epsilon = cli.get_double("epsilon", 0.05);
  options.confidence = cli.get_double("confidence", 0.90);
  options.max_hyper_samples =
      static_cast<std::size_t>(cli.get_int("max-hyper", 500));
  const std::string policy = cli.get("fit-policy", "use");
  if (policy == "redraw") {
    options.hyper.degenerate_policy =
        maxpower::DegenerateFitPolicy::kDiscardRedraw;
  } else if (policy != "use") {
    throw Error(ErrorCode::kUsage, "unknown --fit-policy (use|redraw)",
                ErrorContext{}.kv("value", policy).str());
  }
  // --stop picks the interval/stopping rule (maxpower/stopping.hpp).
  const std::string stop_name = cli.get("stop", "");
  if (!stop_name.empty()) {
    const auto kind = maxpower::interval_kind_from_name(stop_name);
    if (!kind) {
      throw Error(ErrorCode::kUsage, "unknown --stop (t|bootstrap)",
                  ErrorContext{}.kv("value", stop_name).str());
    }
    options.interval = *kind;
  }
  const auto deadline_ms = cli.get_int("deadline-ms", 0);
  if (deadline_ms > 0) {
    options.control.deadline =
        util::Deadline::after(std::chrono::milliseconds(deadline_ms));
  }
  // SIGINT/SIGTERM wind the run down cooperatively (see file header).
  options.control.cancel = g_cancel;
  // Durable run state: --checkpoint FILE persists progress atomically and
  // resumes from an existing checkpoint (docs/ROBUSTNESS.md).
  options.checkpoint_path = cli.get("checkpoint", "");
  if (cli.has("checkpoint-every")) {
    options.checkpoint_every_k = static_cast<std::size_t>(
        std::max<long long>(1, cli.get_int("checkpoint-every", 1)));
  }

  // Observability: --metrics-out FILE (or `-` for stdout) writes the JSONL
  // run report; --trace additionally captures per-hyper-sample events into
  // it and prints the diagnostics JSON to stderr. Neither flag changes the
  // estimate (instrumentation is read-only; see docs/OBSERVABILITY.md).
  const std::string metrics_out = cli.get("metrics-out", "");
  const bool trace_on = cli.has("trace");
  util::Tracer tracer(trace_on || !metrics_out.empty() ? 4096 : 0);
  if (tracer.enabled()) options.tracer = &tracer;
  if (!metrics_out.empty()) util::MetricRegistry::global().enable(true);

  // --threads changes wall time only: the estimate is bit-identical across
  // thread counts, so a checkpoint taken at --threads 8 resumes at
  // --threads 1 and vice versa.
  maxpower::ParallelOptions par;
  par.threads =
      static_cast<unsigned>(std::max<long long>(0, cli.get_int("threads", 1)));
  const maxpower::EstimationResult r =
      maxpower::estimate_max_power(population, options, seed, par);

  if (!metrics_out.empty()) {
    maxpower::RunReportOptions ropt;
    ropt.tracer = &tracer;
    ropt.metrics = &util::MetricRegistry::global();
    const std::string pop_desc = population.description();
    ropt.population = pop_desc;
    if (metrics_out == "-") {
      maxpower::write_run_report(std::cout, r, options, ropt);
    } else {
      std::ofstream out(metrics_out);
      if (!out) {
        throw Error(ErrorCode::kIo, "cannot open metrics output for write",
                    ErrorContext{}.kv("path", metrics_out).str());
      }
      maxpower::write_run_report(out, r, options, ropt);
      if (!out.good()) {
        throw Error(ErrorCode::kIo, "metrics output write failed",
                    ErrorContext{}.kv("path", metrics_out).str());
      }
    }
  }
  if (trace_on) {
    std::fprintf(stderr, "diagnostics: %s\n", r.diagnostics.to_json().c_str());
  }

  std::printf("circuit           : %s (%zu gates)\n", netlist.name().c_str(),
              netlist.num_gates());
  std::printf("input model       : %s\n", pairs->description().c_str());
  const auto kernel = population.kernel();
  std::printf("sim backend       : %s (%s delay)\n",
              kernel ? sim::to_string(*kernel) : "event64",
              sim::to_string(eval_opt.delay_model));
  std::printf("estimated max     : %.4f mW\n", r.estimate);
  std::printf("confidence interval: [%.4f, %.4f] mW @ %.0f%%\n", r.ci.lower,
              r.ci.upper, options.confidence * 100.0);
  std::printf("rel. error bound  : %.2f%% (target %.2f%%)\n",
              r.relative_error_bound * 100.0, options.epsilon * 100.0);
  std::printf("vector pairs used : %zu (%zu hyper-samples)\n", r.units_used,
              r.hyper_samples);
  std::printf("converged         : %s (%s)\n", r.converged ? "yes" : "no",
              std::string(maxpower::to_string(r.stop_reason)).c_str());
  const auto& diag = r.diagnostics;
  if (diag.degenerate_fits || diag.constant_samples ||
      diag.discarded_hyper_samples || diag.nonfinite_units ||
      diag.small_population) {
    std::printf(
        "fit health        : %zu degenerate, %zu constant, "
        "%zu discarded, %zu non-finite units%s\n",
        diag.degenerate_fits, diag.constant_samples,
        diag.discarded_hyper_samples, diag.nonfinite_units,
        diag.small_population ? ", small population" : "");
  }
  for (const auto& record : diag.records) {
    std::fprintf(stderr, "%s\n", format(record).c_str());
  }
  if (r.converged) return 0;
  switch (r.stop_reason) {
    case maxpower::StopReason::kDeadlineExceeded:
      return exit_code(ErrorCode::kDeadline);
    case maxpower::StopReason::kCancelled:
      return exit_code(ErrorCode::kCancelled);
    case maxpower::StopReason::kDataFault:
      return exit_code(ErrorCode::kBadData);
    default:
      return exit_code(ErrorCode::kNonConvergence);
  }
}

int cmd_campaign(const Cli& cli) {
  cli.check_known({"manifest", "state-dir", "report", "retries", "threads",
                   "deadline-ms", "checkpoint-every", "seed"});
  const std::string manifest = cli.get("manifest", "");
  maxpower::CampaignOptions options;
  options.state_dir = cli.get("state-dir", "");
  if (manifest.empty() || options.state_dir.empty()) usage();
  options.report_path = cli.get("report", "");
  options.retry.max_attempts = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("retries", 3)));
  options.threads = static_cast<unsigned>(
      std::max<long long>(0, cli.get_int("threads", 1)));
  if (cli.has("checkpoint-every")) {
    options.checkpoint_every_k = static_cast<std::size_t>(
        std::max<long long>(1, cli.get_int("checkpoint-every", 1)));
  }
  const auto deadline_ms = cli.get_int("deadline-ms", 0);
  if (deadline_ms > 0) {
    options.control.deadline =
        util::Deadline::after(std::chrono::milliseconds(deadline_ms));
  }
  options.control.cancel = g_cancel;

  auto jobs = maxpower::load_campaign_manifest(manifest);
  const auto result = maxpower::run_campaign(jobs, options);

  for (const auto& job : result.jobs) {
    if (job.status == maxpower::JobStatus::kDone) {
      std::printf("%-20s done     %.4f mW (%zu hyper-samples, %zu attempts)\n",
                  job.name.c_str(), job.result.estimate,
                  job.result.hyper_samples, job.attempts);
    } else if (job.status == maxpower::JobStatus::kSkipped) {
      std::printf("%-20s skipped  (already done per report)\n",
                  job.name.c_str());
    } else {
      std::printf("%-20s %-8s [%s] after %zu attempt(s)\n", job.name.c_str(),
                  std::string(maxpower::to_string(job.status)).c_str(),
                  std::string(to_string(job.error)).c_str(), job.attempts);
    }
  }
  std::printf("campaign: %zu done, %zu skipped, %zu failed of %zu jobs\n",
              result.done, result.skipped, result.failed, result.jobs.size());

  if (result.stopped == util::StopCause::kCancelled) {
    return exit_code(ErrorCode::kCancelled);
  }
  if (result.stopped == util::StopCause::kDeadline) {
    return exit_code(ErrorCode::kDeadline);
  }
  // Any fatally-failed job surfaces as the dedicated "jobs failed" exit
  // code (12): distinct from per-job causes (those live in the ledger) and
  // from campaign-level interruptions, so orchestration can branch on $?.
  if (result.failed > 0) return exit_code(ErrorCode::kJobsFailed);
  return 0;
}

/// Parses --shard-size K, shared by campaign-coordinator and serve --fleet.
/// Anything but a positive integer is a usage error.
std::size_t parse_shard_size(const Cli& cli) {
  const std::int64_t size = cli.get_int(
      "shard-size", static_cast<std::int64_t>(maxpower::kDefaultShardSize));
  if (size < 1) {
    throw Error(ErrorCode::kUsage, "--shard-size must be a positive integer",
                ErrorContext{}.kv("value", size).str());
  }
  return static_cast<std::size_t>(size);
}

int cmd_campaign_coordinator(const Cli& cli) {
  cli.check_known({"manifest", "state-dir", "socket", "tcp-port", "host",
                   "report", "lease-ms", "job-deadline-ms", "max-assign",
                   "shard-size", "straggler-ms", "drain-grace-ms"});
  dist::CoordinatorConfig config;
  config.shard_size = parse_shard_size(cli);
  const std::string manifest = cli.get("manifest", "");
  config.state_dir = cli.get("state-dir", "");
  const std::string socket_path = cli.get("socket", "");
  const bool tcp = cli.has("tcp-port");
  if (manifest.empty() || config.state_dir.empty() ||
      (socket_path.empty() && !tcp)) {
    usage();
  }
  config.report_path = cli.get("report", "");
  config.lease = std::chrono::milliseconds(
      std::max<long long>(100, cli.get_int("lease-ms", 5000)));
  const auto job_deadline_ms = cli.get_int("job-deadline-ms", 0);
  if (job_deadline_ms > 0) {
    config.job_deadline = std::chrono::milliseconds(job_deadline_ms);
  }
  config.max_assignments = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("max-assign", 5)));
  const auto straggler_ms = cli.get_int("straggler-ms", 0);
  if (straggler_ms > 0) {
    config.straggler_after = std::chrono::milliseconds(straggler_ms);
  }
  config.jobs = maxpower::load_campaign_manifest(manifest);

  dist::CoordinatorCore core(std::move(config));
  dist::CoordinatorServerOptions server;
  server.socket_path = socket_path;
  server.control.cancel = g_cancel;  // SIGINT/SIGTERM -> graceful drain
  server.waker = signal_waker();
  const auto drain_grace_ms = cli.get_int("drain-grace-ms", 0);
  if (drain_grace_ms > 0) {
    server.drain_grace = std::chrono::milliseconds(drain_grace_ms);
  }

  maxpower::CampaignResult result;
  if (tcp) {
    const std::string host = cli.get("host", "127.0.0.1");
    dist::TcpListener listener(
        static_cast<std::uint16_t>(cli.get_int("tcp-port", 0)), host);
    std::printf("listening tcp %s:%u\n", host.c_str(),
                static_cast<unsigned>(listener.port()));
    std::fflush(stdout);  // workers parse the port from this line
    result = dist::serve_campaign(core, listener, server);
  } else {
    result = dist::serve_campaign(core, server);
  }

  std::printf(
      "coordinator: %zu done, %zu skipped, %zu failed; %zu leases granted, "
      "%zu shards done\n",
      result.done, result.skipped, result.failed, core.leases_granted(),
      core.shards_done());
  if (result.stopped == util::StopCause::kCancelled) {
    return exit_code(ErrorCode::kCancelled);
  }
  if (result.stopped == util::StopCause::kDeadline) {
    return exit_code(ErrorCode::kDeadline);
  }
  if (result.failed > 0) return exit_code(ErrorCode::kJobsFailed);
  return 0;
}

int cmd_campaign_worker(const Cli& cli) {
  // --threads stays accepted for existing scripts; a shard computes on one
  // thread whatever it says.
  cli.check_known({"socket", "tcp", "state-dir", "worker-id", "threads",
                   "heartbeat-ms", "checkpoint-every", "deadline-ms"});
  dist::WorkerConfig config;
  config.socket_path = cli.get("socket", "");
  const std::string tcp = cli.get("tcp", "");
  if (!tcp.empty()) {
    const auto colon = tcp.rfind(':');
    const std::string port_str =
        colon == std::string::npos ? tcp : tcp.substr(colon + 1);
    if (colon != std::string::npos && colon > 0) {
      config.tcp_host = tcp.substr(0, colon);
    }
    config.tcp_port =
        static_cast<std::uint16_t>(std::atoi(port_str.c_str()));
    if (config.tcp_port == 0) usage();
  }
  config.state_dir = cli.get("state-dir", "");
  config.worker_id = cli.get("worker-id", "");
  if ((config.socket_path.empty() && config.tcp_port == 0) ||
      config.state_dir.empty() || config.worker_id.empty()) {
    usage();
  }
  config.heartbeat = std::chrono::milliseconds(
      std::max<long long>(50, cli.get_int("heartbeat-ms", 1000)));
  if (cli.has("checkpoint-every")) {
    config.checkpoint_every_k = static_cast<std::size_t>(
        std::max<long long>(1, cli.get_int("checkpoint-every", 1)));
  }
  const auto deadline_ms = cli.get_int("deadline-ms", 0);
  if (deadline_ms > 0) {
    config.control.deadline =
        util::Deadline::after(std::chrono::milliseconds(deadline_ms));
  }
  config.control.cancel = g_cancel;

  const auto summary = dist::run_worker(config);
  std::printf("worker %s: %zu leases, %zu shards, %zu failed, %zu stopped%s\n",
              config.worker_id.c_str(), summary.leases, summary.shards,
              summary.failed, summary.stopped,
              summary.drained ? " (drained)" : "");
  if (!summary.error_detail.empty()) {
    std::fprintf(stderr, "worker %s: coordinator error: %s\n",
                 config.worker_id.c_str(), summary.error_detail.c_str());
  }
  if (summary.exit_error != ErrorCode::kOk) {
    return exit_code(summary.exit_error);
  }
  return 0;
}

int cmd_ledger_audit(const Cli& cli) {
  cli.check_known({"report", "merged-out", "strict"});
  const std::string report = cli.get("report", "");
  if (report.empty()) usage();

  const auto ledger = maxpower::read_ledger_file(report);
  const auto audit = maxpower::audit_ledger(ledger);
  std::printf(
      "ledger: %zu records (%zu legacy), %zu corrupt, %zu ignored; "
      "%zu done, %zu failed, %zu duplicate-done\n",
      ledger.records.size(), ledger.legacy, ledger.corrupt.size(),
      ledger.ignored, audit.done_jobs, audit.failed_jobs,
      audit.duplicate_done);
  for (const auto& violation : audit.violations) {
    std::fprintf(stderr, "violation: %s\n", violation.c_str());
  }

  const std::string merged_out = cli.get("merged-out", "");
  if (!merged_out.empty()) {
    const std::string merged = maxpower::merge_ledger(ledger);
    if (merged_out == "-") {
      std::fwrite(merged.data(), 1, merged.size(), stdout);
    } else {
      util::atomic_write_file(merged_out, merged);
    }
  }

  if (!audit.ok()) return exit_code(ErrorCode::kCorruptData);
  if (cli.has("strict") && !ledger.corrupt.empty()) {
    return exit_code(ErrorCode::kCorruptData);
  }
  return 0;
}

int cmd_serve(const Cli& cli) {
  cli.check_known({"socket", "tcp-port", "host", "state-dir", "cache-cap",
                   "max-active", "max-queue", "queue-per-client", "threads",
                   "job-deadline-ms", "max-deadline-ms", "drain-grace-ms",
                   "trace-capacity", "fleet", "worker-socket",
                   "worker-port", "worker-host", "lease-ms", "max-assign",
                   "shard-size", "straggler-ms"});
  server::ServerOptions opt;
  opt.fleet.shard_size = parse_shard_size(cli);
  opt.unix_socket = cli.get("socket", "");
  if (cli.has("tcp-port")) {
    opt.tcp = true;
    opt.tcp_port =
        static_cast<std::uint16_t>(cli.get_int("tcp-port", 0));
  }
  opt.tcp_host = cli.get("host", "127.0.0.1");
  if (opt.unix_socket.empty() && !opt.tcp) usage();
  opt.state_dir = cli.get("state-dir", "");
  if (!opt.state_dir.empty() &&
      ::mkdir(opt.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw Error(ErrorCode::kIo, "cannot create server state directory",
                ErrorContext{}.kv("path", opt.state_dir).str());
  }
  opt.cache_capacity = static_cast<std::size_t>(std::max<long long>(
      1, cli.get_int("cache-cap",
                     static_cast<std::int64_t>(opt.cache_capacity))));
  opt.scheduler.max_active = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("max-active", 2)));
  opt.scheduler.max_queued_per_client = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("queue-per-client", 8)));
  opt.scheduler.max_queued_total = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("max-queue", 64)));
  opt.scheduler.threads_per_job = static_cast<unsigned>(
      std::max<long long>(1, cli.get_int("threads", 1)));
  const auto job_deadline_ms = cli.get_int("job-deadline-ms", 0);
  if (job_deadline_ms > 0) {
    opt.scheduler.default_deadline = std::chrono::milliseconds(job_deadline_ms);
  }
  const auto max_deadline_ms = cli.get_int("max-deadline-ms", 0);
  if (max_deadline_ms > 0) {
    opt.scheduler.max_deadline = std::chrono::milliseconds(max_deadline_ms);
  }
  const auto drain_grace_ms = cli.get_int("drain-grace-ms", 0);
  if (drain_grace_ms > 0) {
    opt.drain_grace = std::chrono::milliseconds(drain_grace_ms);
  }
  if (cli.has("trace-capacity")) {
    opt.trace_capacity = static_cast<std::size_t>(
        std::max<long long>(0, cli.get_int("trace-capacity", 256)));
  }
  if (cli.has("fleet") || cli.has("worker-socket") || cli.has("worker-port")) {
    opt.fleet.enabled = true;
    opt.fleet.worker_socket = cli.get("worker-socket", "");
    if (cli.has("worker-port")) {
      opt.fleet.worker_tcp = true;
      opt.fleet.worker_tcp_port =
          static_cast<std::uint16_t>(cli.get_int("worker-port", 0));
    }
    opt.fleet.worker_tcp_host = cli.get("worker-host", "127.0.0.1");
    if (opt.fleet.worker_socket.empty() && !opt.fleet.worker_tcp) usage();
    if (opt.state_dir.empty()) usage();  // the fleet ledger lives under it
    opt.fleet.lease = std::chrono::milliseconds(
        std::max<long long>(100, cli.get_int("lease-ms", 5000)));
    opt.fleet.max_assignments = static_cast<std::size_t>(
        std::max<long long>(1, cli.get_int("max-assign", 5)));
    const auto straggler_ms = cli.get_int("straggler-ms", 0);
    if (straggler_ms > 0) {
      opt.fleet.straggler_after = std::chrono::milliseconds(straggler_ms);
    }
  }
  opt.control.cancel = g_cancel;  // SIGINT/SIGTERM -> graceful drain
  opt.waker = signal_waker();
  util::MetricRegistry::global().enable(true);  // feeds the scrape endpoint

  server::Server server(opt);
  if (!opt.unix_socket.empty()) {
    std::printf("listening unix %s\n", opt.unix_socket.c_str());
  }
  if (opt.tcp) {
    std::printf("listening tcp %s:%u\n", opt.tcp_host.c_str(),
                static_cast<unsigned>(server.tcp_port()));
  }
  if (opt.fleet.enabled && !opt.fleet.worker_socket.empty()) {
    std::printf("listening worker unix %s\n", opt.fleet.worker_socket.c_str());
  }
  if (opt.fleet.enabled && opt.fleet.worker_tcp) {
    std::printf("listening worker tcp %s:%u\n",
                opt.fleet.worker_tcp_host.c_str(),
                static_cast<unsigned>(server.worker_tcp_port()));
  }
  std::fflush(stdout);  // clients parse the port from this line

  const auto report = server.serve();
  const auto& s = report.stats;
  std::printf(
      "server: %llu connections; %llu accepted, %llu rejected; "
      "%llu done, %llu failed, %llu stopped; cache %llu hits, %llu misses, "
      "%llu evictions%s\n",
      static_cast<unsigned long long>(report.connections),
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.done),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.stopped),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.cache_evictions),
      report.drained ? " (drained)" : " (drain grace expired)");
  return report.drained ? 0 : exit_code(ErrorCode::kCancelled);
}

/// Builds the single inline job described by submit's estimate-style flags.
maxpower::CampaignJob submit_job_from_flags(const Cli& cli) {
  maxpower::CampaignJob job;
  job.name = cli.get("job", "");
  job.circuit = cli.get("circuit", "");
  job.bench = cli.get("bench", "");
  job.verilog = cli.get("verilog", "");
  job.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  job.epsilon = cli.get_double("epsilon", 0.05);
  job.confidence = cli.get_double("confidence", 0.90);
  job.tprob = cli.get_double("tprob", 0.5);
  if (cli.has("activity")) job.activity = cli.get_double("activity", 0.3);
  job.max_hyper_samples =
      static_cast<std::size_t>(cli.get_int("max-hyper", 500));
  job.stop = cli.get("stop", "");
  job.delay = cli.get("delay", "");
  return job;
}

int cmd_submit(const Cli& cli) {
  cli.check_known({"socket", "host", "port", "stats", "scrape", "manifest",
                   "job", "circuit", "bench", "verilog", "seed", "epsilon",
                   "confidence", "tprob", "activity", "max-hyper", "stop",
                   "delay", "deadline-ms", "report-dir", "timeout-ms",
                   "client-id", "events"});
  std::unique_ptr<dist::LineChannel> channel;
  const std::string socket_path = cli.get("socket", "");
  if (!socket_path.empty()) {
    channel = dist::connect_unix(socket_path);
  } else if (cli.has("port")) {
    channel = dist::connect_tcp(
        cli.get("host", "127.0.0.1"),
        static_cast<std::uint16_t>(cli.get_int("port", 0)));
  } else {
    usage();
  }
  if (channel == nullptr) {
    throw Error(ErrorCode::kIo, "cannot connect to server",
                ErrorContext{}.kv("socket", socket_path).str());
  }
  const auto recv_timeout = std::chrono::milliseconds(200);
  const auto overall = std::chrono::milliseconds(
      std::max<long long>(1000, cli.get_int("timeout-ms", 300000)));
  const auto deadline = std::chrono::steady_clock::now() + overall;
  const auto recv_reply = [&](server::ServerMessage& msg) {
    std::string line;
    while (std::chrono::steady_clock::now() < deadline &&
           g_signal_count == 0) {
      const auto status = channel->recv_line(line, recv_timeout);
      if (status == dist::LineChannel::RecvStatus::kClosed) {
        throw Error(ErrorCode::kIo, "server closed the connection");
      }
      if (status == dist::LineChannel::RecvStatus::kTimeout) continue;
      msg = server::decode_server_message(line);
      return true;
    }
    return false;
  };

  channel->send_line(server::encode_hello(cli.get("client-id", "mpe_cli")));
  server::ServerMessage msg;
  if (!recv_reply(msg) || msg.kind != server::ServerMessageKind::kWelcome) {
    throw Error(ErrorCode::kIo, "server handshake failed",
                ErrorContext{}
                    .kv("reply", msg.kind == server::ServerMessageKind::kError
                                     ? msg.detail
                                     : "timeout")
                    .str());
  }

  if (cli.has("scrape")) {
    channel->send_line(server::encode_scrape());
    if (!recv_reply(msg) || msg.kind != server::ServerMessageKind::kMetrics) {
      throw Error(ErrorCode::kIo, "scrape failed");
    }
    std::fwrite(msg.text.data(), 1, msg.text.size(), stdout);
    return 0;
  }
  if (cli.has("stats")) {
    channel->send_line(server::encode_stats());
    if (!recv_reply(msg) ||
        msg.kind != server::ServerMessageKind::kServerStats) {
      throw Error(ErrorCode::kIo, "stats failed");
    }
    std::fwrite(server::encode_server_stats(msg.stats).data(), 1,
                server::encode_server_stats(msg.stats).size(), stdout);
    std::printf("\n");
    return 0;
  }

  std::vector<maxpower::CampaignJob> jobs;
  const std::string manifest = cli.get("manifest", "");
  if (!manifest.empty()) {
    jobs = maxpower::load_campaign_manifest(manifest);
  } else {
    jobs.push_back(submit_job_from_flags(cli));
    if (jobs.back().name.empty()) usage();
  }
  const auto deadline_ms = static_cast<std::uint64_t>(
      std::max<long long>(0, cli.get_int("deadline-ms", 0)));
  const std::string report_dir = cli.get("report-dir", "");
  const bool show_events = cli.has("events");

  std::map<std::string, bool> pending;  // id -> still waiting for a verdict
  for (const auto& job : jobs) {
    channel->send_line(server::encode_submit(
        job.name, maxpower::campaign_job_to_json(job), deadline_ms));
    pending[job.name] = true;
  }

  bool resource_exhausted = false;
  bool failed = false;
  std::size_t remaining = pending.size();
  while (remaining > 0) {
    if (!recv_reply(msg)) {
      throw Error(ErrorCode::kDeadline, "timed out waiting for results",
                  ErrorContext{}.kv("pending", remaining).str());
    }
    switch (msg.kind) {
      case server::ServerMessageKind::kAccepted:
        break;  // a result will follow
      case server::ServerMessageKind::kRejected: {
        std::printf("%-20s rejected [%s] %s\n", msg.id.c_str(),
                    std::string(to_string(msg.code)).c_str(),
                    msg.detail.c_str());
        if (msg.code == ErrorCode::kResourceExhausted) {
          resource_exhausted = true;
        } else {
          failed = true;
        }
        if (pending.count(msg.id) != 0 && pending[msg.id]) {
          pending[msg.id] = false;
          --remaining;
        }
        break;
      }
      case server::ServerMessageKind::kEvent:
        if (show_events) {
          std::fprintf(stderr, "event %s #%llu %s {%s}\n", msg.id.c_str(),
                       static_cast<unsigned long long>(msg.seq),
                       msg.name.c_str(), msg.fields.c_str());
        }
        break;
      case server::ServerMessageKind::kResult: {
        if (msg.status == maxpower::JobStatus::kDone) {
          // Full-precision numbers: scripts byte-compare these against the
          // batch CLI for the determinism guarantee.
          std::printf(
              "%-20s done     estimate=%.17g ci=[%.17g,%.17g] "
              "hyper=%llu units=%llu%s\n",
              msg.id.c_str(), msg.estimate, msg.ci_lower, msg.ci_upper,
              static_cast<unsigned long long>(msg.hyper_samples),
              static_cast<unsigned long long>(msg.units),
              msg.converged ? "" : " (not converged)");
        } else {
          std::printf("%-20s %-8s [%s]\n", msg.id.c_str(),
                      std::string(maxpower::to_string(msg.status)).c_str(),
                      std::string(to_string(msg.code)).c_str());
          failed = true;
        }
        if (!report_dir.empty() && !msg.text.empty()) {
          const std::string path = report_dir + "/" + msg.id + ".jsonl";
          std::ofstream out(path);
          if (out) out << msg.text;
        }
        if (pending.count(msg.id) != 0 && pending[msg.id]) {
          pending[msg.id] = false;
          --remaining;
        }
        break;
      }
      case server::ServerMessageKind::kDrain:
        std::fprintf(stderr, "server draining\n");
        break;
      case server::ServerMessageKind::kError:
        throw Error(ErrorCode::kBadData, "server reported a protocol error",
                    ErrorContext{}.kv("detail", msg.detail).str());
      default:
        break;  // tolerate unknown-but-valid replies
    }
  }
  if (resource_exhausted && !failed) {
    return exit_code(ErrorCode::kResourceExhausted);
  }
  if (failed || resource_exhausted) return exit_code(ErrorCode::kJobsFailed);
  return 0;
}

int cmd_report(const Cli& cli) {
  cli.check_known({"circuit", "bench", "verilog", "seed"});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto netlist = load_circuit(cli, seed);
  const auto st = netlist.stats();
  std::printf("%s: %zu inputs, %zu outputs, %zu gates, depth %zu\n",
              netlist.name().c_str(), st.num_inputs, st.num_outputs,
              st.num_gates, st.depth);
  std::printf("max fanin %zu, max fanout %zu, avg fanout %.2f\n",
              st.max_fanin, st.max_fanout, st.avg_fanout);
  for (std::size_t t = 0; t < circuit::kNumGateTypes; ++t) {
    if (st.gates_by_type[t] == 0) continue;
    std::printf("  %-5s %zu\n",
                circuit::to_string(static_cast<circuit::GateType>(t)).c_str(),
                st.gates_by_type[t]);
  }
  const auto timing = sim::analyze_timing(netlist);
  std::printf("topological critical delay: %.3f ns\n", timing.critical_delay);

  const vec::UniformPairGenerator pairs(netlist.num_inputs());
  Rng rng(seed);
  const auto prof = sim::profile_power(netlist, pairs, 300, {}, rng);
  std::printf("avg power %.4f mW, sampled max %.4f mW; top consumers:\n",
              prof.avg_power_mw, prof.max_power_mw);
  for (std::size_t i = 0; i < std::min<std::size_t>(5, prof.by_node.size());
       ++i) {
    std::printf("  %-16s %5.1f%% of energy\n",
                netlist.node_name(prof.by_node[i].node).c_str(),
                prof.by_node[i].share * 100.0);
  }
  return 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

int cmd_convert(const Cli& cli) {
  cli.check_known({"in", "out"});
  const std::string in_path = cli.get("in", "");
  const std::string out_path = cli.get("out", "");
  if (in_path.empty() || out_path.empty()) usage();

  circuit::Netlist netlist =
      ends_with(in_path, ".v") ? circuit::read_verilog_file(in_path)
                               : circuit::read_bench_file(in_path);
  std::ofstream out(out_path);
  if (!out) {
    throw Error(ErrorCode::kIo, "cannot open for write",
                ErrorContext{}.kv("path", out_path).str());
  }
  if (ends_with(out_path, ".v")) {
    circuit::write_verilog(out, netlist);
  } else {
    circuit::write_bench(out, netlist);
  }
  std::printf("%s (%zu gates) -> %s\n", in_path.c_str(), netlist.num_gates(),
              out_path.c_str());
  return 0;
}

int cmd_timing(const Cli& cli) {
  cli.check_known({"circuit", "bench", "verilog", "seed", "model"});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto netlist = load_circuit(cli, seed);
  const auto dm = sim::delay_model_from_name(cli.get("model", "loaded"));
  if (!dm) usage();

  const auto t = sim::analyze_timing(netlist, sim::Technology{}, *dm);
  std::printf("critical delay (%s model): %.3f ns\n",
              sim::to_string(*dm), t.critical_delay);
  std::printf("critical path (%zu nodes):\n", t.critical_path.size());
  for (auto n : t.critical_path) {
    std::printf("  %-20s arrival %.3f ns\n",
                netlist.node_name(n).c_str(), t.arrival[n]);
  }
  return 0;
}

int cmd_vcd(const Cli& cli) {
  cli.check_known({"circuit", "bench", "verilog", "seed", "out", "cycles"});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto cycles = static_cast<std::size_t>(cli.get_int("cycles", 4));
  const std::string out_path = cli.get("out", "");
  if (out_path.empty()) usage();

  auto netlist = load_circuit(cli, seed);
  sim::VcdRecorder recorder(netlist);
  Rng rng(seed);
  auto v1 = vec::random_vector(netlist.num_inputs(), rng);
  double total_mw = 0.0;
  for (std::size_t c = 0; c < cycles; ++c) {
    const auto v2 = vec::random_vector(netlist.num_inputs(), rng);
    total_mw += recorder.record_cycle(v1, v2).power_mw;
    v1 = v2;
  }
  std::ofstream out(out_path);
  if (!out) {
    throw Error(ErrorCode::kIo, "cannot open for write",
                ErrorContext{}.kv("path", out_path).str());
  }
  recorder.write(out);
  std::printf("wrote %s: %zu cycles, %zu transitions, avg power %.4f mW\n",
              out_path.c_str(), recorder.cycles(), recorder.events().size(),
              total_mw / static_cast<double>(cycles));
  return 0;
}

int cmd_maxdelay(const Cli& cli) {
  cli.check_known({"circuit", "bench", "verilog", "seed", "epsilon"});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto netlist = load_circuit(cli, seed);
  sim::EventSimOptions options;
  sim::EventSimulator simulator(netlist, options);
  const vec::UniformPairGenerator pairs(netlist.num_inputs());
  maxpower::EstimatorOptions est;
  est.epsilon = cli.get_double("epsilon", 0.08);
  const auto r = maxdelay::estimate_max_delay(pairs, simulator, est, seed);
  const auto t = sim::analyze_timing(netlist);
  std::printf("EVT max sensitizable delay: %.3f ns  [%.3f, %.3f] @ 90%%\n",
              r.estimate, r.ci.lower, r.ci.upper);
  std::printf("topological bound         : %.3f ns\n", t.critical_delay);
  std::printf("vector pairs used         : %zu\n", r.units_used);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  install_signal_handlers();
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Cli cli(argc - 1, argv + 1);
  if (cmd == "estimate") return cmd_estimate(cli);
  if (cmd == "campaign") return cmd_campaign(cli);
  if (cmd == "campaign-coordinator") return cmd_campaign_coordinator(cli);
  if (cmd == "campaign-worker") return cmd_campaign_worker(cli);
  if (cmd == "ledger-audit") return cmd_ledger_audit(cli);
  if (cmd == "serve") return cmd_serve(cli);
  if (cmd == "submit") return cmd_submit(cli);
  if (cmd == "report") return cmd_report(cli);
  if (cmd == "convert") return cmd_convert(cli);
  if (cmd == "timing") return cmd_timing(cli);
  if (cmd == "vcd") return cmd_vcd(cli);
  if (cmd == "maxdelay") return cmd_maxdelay(cli);
  usage();
} catch (const std::exception& e) {
  // Structured report + stable exit code for every escaping failure:
  // usage/parse/io/bad-data each land on their own code so scripts can
  // branch on $? instead of scraping stderr.
  const mpe::Diagnostic d = mpe::classify_exception(e);
  std::fprintf(stderr, "mpe_cli: %s\n", mpe::format(d).c_str());
  return mpe::exit_code(d.code);
}
