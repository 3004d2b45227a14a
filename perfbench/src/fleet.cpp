// serve_fleet: `mpe_cli serve --fleet` with two single-thread
// campaign-worker processes over loopback TCP, driven by this process as
// the load generator — two submit connections, each with one small
// zero-delay job in flight. Every result is checked byte for byte against
// an in-process Engine::run of the same job.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/transport.hpp"
#include "gen/presets.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/engine.hpp"
#include "probes.hpp"
#include "server/server_protocol.hpp"
#include "sim/gate_program.hpp"
#include "sim/power_eval.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mpe::maxpower::CampaignJob;
using mpe::server::ServerMessage;
using mpe::server::ServerMessageKind;
using Ms = std::chrono::milliseconds;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;  // below --queue-per-client (8): never refused
constexpr int kSetups = 7;
constexpr auto kJobTimeout = std::chrono::seconds(60);
// A fixed shard size keeps the shard plan the same on every run. With the
// default `auto`, the plan follows measured shard latency: it grew to the
// 4096-attempt ceiling, a shard then took ~500 ms for a job that runs in
// ~25 ms in process, and the set-up and latency modes followed the host's
// speed. 16 is the size `auto` starts from: most jobs take 2 shards.
constexpr const char* kShardSize = "16";
// Small zero-delay circuits: compute per job is a few ms, so the server,
// the shard scheduler and the wire dominate.
const std::vector<std::string> kCircuits = {"c432", "c880"};

/// One child process. The destructor stops and reaps it: SIGTERM, a grace
/// period for the drain, then SIGKILL. PR_SET_PDEATHSIG kills it should this
/// process die first, so no run leaves an orphan behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path,
        bool pipe_stdout) {
    int fds[2] = {-1, -1};
    if (pipe_stdout && ::pipe(fds) != 0) throw std::runtime_error("pipe");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::dup2(pipe_stdout ? fds[1] : log, STDOUT_FILENO);
      std::vector<char*> args;
      for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    if (pipe_stdout) {
      ::close(fds[1]);
      out_fd_ = fds[0];
    }
  }
  ~Child() { stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Reads stdout until a line starting with `prefix` appears; returns the
  /// rest of that line.
  std::string wait_line(const std::string& prefix, Ms timeout) {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      std::size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
      }
      const auto left =
          std::chrono::duration_cast<Ms>(deadline - Clock::now()).count();
      pollfd p{out_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) {
        throw std::runtime_error("timed out waiting for '" + prefix + "'");
      }
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("child exited before '" + prefix +
                                           "'");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Stops and reaps the child (idempotent).
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(Ms(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

std::uint16_t port_of(const std::string& host_port) {
  return static_cast<std::uint16_t>(
      std::stoi(host_port.substr(host_port.rfind(':') + 1)));
}

/// Reads one reply, or returns false when `deadline` passes first.
bool recv_message(mpe::dist::LineChannel& ch, ServerMessage& msg,
                  Clock::time_point deadline) {
  std::string line;
  while (Clock::now() < deadline) {
    const auto st = ch.recv_line(line, Ms(100));
    if (st == mpe::dist::LineChannel::RecvStatus::kTimeout) continue;
    if (st != mpe::dist::LineChannel::RecvStatus::kLine) return false;
    msg = mpe::server::decode_server_message(line);
    return true;
  }
  return false;
}

/// Client-side timestamps of one job, in seconds since the run started.
struct JobTrace {
  std::size_t k = 0;
  bool ok = false;
  std::string why;  ///< failure reason
  double submit = 0, accepted = -1, first_event = -1, last_event = -1,
         result = -1;
  ServerMessage reply;
};

/// The daemon, its workers, and the load generator's connections.
class Fleet {
 public:
  /// Starts the daemon and connects the clients; workers come later.
  Fleet(const std::string& cli, const std::string& dir)
      : cli_(cli), dir_(dir) {
    std::filesystem::create_directories(dir);
    daemon_ = std::make_unique<Child>(
        std::vector<std::string>{cli, "serve", "--tcp-port", "0", "--fleet",
                                 "--worker-port", "0", "--state-dir",
                                 dir + "/server", "--trace-capacity", "0",
                                 "--shard-size", kShardSize},
        dir + "/daemon.log", true);
    const std::uint16_t port =
        port_of(daemon_->wait_line("listening tcp ", Ms(20000)));
    worker_port_ =
        port_of(daemon_->wait_line("listening worker tcp ", Ms(20000)));
    for (int c = 0; c < kConnections; ++c) {
      channels_.push_back(dial(port, "perfbench" + std::to_string(c)));
    }
    port_ = port;
  }

  void start_workers() {
    for (int w = 0; w < kWorkers; ++w) {
      const std::string id = "w" + std::to_string(w);
      workers_.push_back(std::make_unique<Child>(
          std::vector<std::string>{cli_, "campaign-worker", "--tcp",
                                   "127.0.0.1:" + std::to_string(worker_port_),
                                   "--state-dir", dir_ + "/" + id,
                                   "--worker-id", id, "--threads", "1"},
          dir_ + "/" + id + ".log", false));
    }
  }
  ~Fleet() {
    channels_.clear();
    if (daemon_) daemon_->stop();  // drains; workers see the drain and exit
    workers_.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  mpe::dist::LineChannel& channel(int c) { return *channels_[c]; }

  /// Daemon plus workers, VmHWM read from /proc.
  double peak_rss_mb() const {
    double mb = perfbench::peak_rss_mb(daemon_->pid());
    for (const auto& w : workers_) mb += perfbench::peak_rss_mb(w->pid());
    return mb;
  }

  /// The scrape endpoint's series, name{labels} -> value.
  std::map<std::string, double> scrape() {
    auto ch = dial(port_, "perfbench-scrape");
    ch->send_line(mpe::server::encode_scrape());
    ServerMessage msg;
    if (!recv_message(*ch, msg, Clock::now() + std::chrono::seconds(10)) ||
        msg.kind != ServerMessageKind::kMetrics) {
      throw std::runtime_error("scrape failed");
    }
    std::map<std::string, double> out;
    std::istringstream in(msg.text);
    std::string line;
    while (std::getline(in, line)) {
      const auto sp = line.rfind(' ');
      if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
      out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return out;
  }

 private:
  static std::unique_ptr<mpe::dist::LineChannel> dial(std::uint16_t port,
                                                      const std::string& who) {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      auto ch = mpe::dist::connect_tcp("127.0.0.1", port);
      if (ch != nullptr) {
        ch->send_line(mpe::server::encode_hello(who));
        ServerMessage msg;
        if (recv_message(*ch, msg, deadline) &&
            msg.kind == ServerMessageKind::kWelcome) {
          return ch;
        }
        throw std::runtime_error("server handshake failed");
      }
      if (Clock::now() > deadline) throw std::runtime_error("cannot connect");
      std::this_thread::sleep_for(Ms(10));
    }
  }

  std::string cli_;
  std::string dir_;
  std::unique_ptr<Child> daemon_;
  std::vector<std::unique_ptr<Child>> workers_;
  std::vector<std::unique_ptr<mpe::dist::LineChannel>> channels_;
  std::uint16_t port_ = 0;
  std::uint16_t worker_port_ = 0;
};

// The job seed is both the netlist seed (the circuit cache key) and the
// engine seed; one fixed value makes every job after warm-up a cache hit.
constexpr std::uint64_t kJobSeed = 1;

CampaignJob make_job(const std::string& name, std::size_t circuit,
                     double tprob) {
  CampaignJob job;
  job.name = name;
  job.circuit = kCircuits[circuit];
  job.seed = kJobSeed;
  job.delay = "zero";
  job.tprob = tprob;
  // The daemon parses the JSON line, so the oracle must too.
  return mpe::maxpower::parse_campaign_job_line(
      mpe::maxpower::campaign_job_to_json(job));
}

// A fixed catalog of 2 circuits x 4 input transition probabilities, which
// --seed shuffles anew every 8 jobs. A run completes only ~60 jobs, too few
// for a mix drawn from --seed to average out: units per estimate then
// spread 16% between seeds.
constexpr double kTprob[] = {0.35, 0.45, 0.55, 0.65};
constexpr std::size_t kCatalog = 2 * std::size(kTprob);

/// The catalog entry job k of the run runs.
std::size_t spec_at(const Args& args, std::size_t k) {
  return cycle_order(args.seed, kCatalog, k / kCatalog)[k % kCatalog];
}

CampaignJob job_at(const Args& args, std::size_t k, const std::string& tag) {
  const std::size_t spec = spec_at(args, k);
  return make_job(tag + std::to_string(k), spec % kCircuits.size(),
                  kTprob[spec / kCircuits.size()]);
}

/// Sends the submit line of job `k`; `t.why` is set when that fails.
JobTrace submit_job(mpe::dist::LineChannel& ch, const CampaignJob& job,
                    std::size_t k, Clock::time_point origin) {
  JobTrace t;
  t.k = k;
  t.submit = seconds_since(origin);
  if (!ch.send_line(mpe::server::encode_submit(
          job.name, mpe::maxpower::campaign_job_to_json(job)))) {
    t.why = "send failed";
  }
  return t;
}

/// Follows a submitted job to its result, or only until it is accepted.
/// Returns false when the job ended without a result (see `t.why`).
bool follow_job(mpe::dist::LineChannel& ch, JobTrace& t,
                Clock::time_point origin, bool until_accepted) {
  const auto at = [&] { return seconds_since(origin); };
  if (!t.why.empty()) return false;
  const auto deadline = Clock::now() + kJobTimeout;
  ServerMessage msg;
  while (recv_message(ch, msg, deadline)) {
    switch (msg.kind) {
      case ServerMessageKind::kAccepted:
        t.accepted = at();
        if (until_accepted) return true;
        break;
      case ServerMessageKind::kEvent:
        t.last_event = at();
        if (t.first_event < 0) t.first_event = t.last_event;
        break;
      case ServerMessageKind::kRejected:
        t.why = "rejected: " + msg.detail;
        return false;
      case ServerMessageKind::kResult:
        t.result = at();
        t.reply = msg;
        t.ok = msg.status == mpe::maxpower::JobStatus::kDone;
        if (!t.ok) t.why = "job not done";
        return t.ok;
      case ServerMessageKind::kError:
        t.why = "protocol error: " + msg.detail;
        return false;
      default:
        break;
    }
  }
  t.why = "timed out";
  return false;
}

/// Reads replies until `count` jobs sent on `ch` have finished; returns why
/// one did not finish done, or "" when all did.
std::string await_results(mpe::dist::LineChannel& ch, std::size_t count) {
  const auto deadline = Clock::now() + kJobTimeout;
  ServerMessage msg;
  for (std::size_t done = 0; done < count;) {
    if (!recv_message(ch, msg, deadline)) return "timed out";
    switch (msg.kind) {
      case ServerMessageKind::kResult:
        if (msg.status != mpe::maxpower::JobStatus::kDone) {
          return "job " + msg.id + " not done";
        }
        ++done;
        break;
      case ServerMessageKind::kRejected:
        return "job " + msg.id + " rejected: " + msg.detail;
      case ServerMessageKind::kError:
        return "protocol error: " + msg.detail;
      default:
        break;
    }
  }
  return "";
}

/// The line `mpe_cli submit` prints for a done job, from either side.
std::string done_line(double estimate, double lo, double hi,
                      std::uint64_t hyper, std::uint64_t units,
                      bool converged) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "estimate=%.17g ci=[%.17g,%.17g] hyper=%llu units=%llu%s",
                estimate, lo, hi, static_cast<unsigned long long>(hyper),
                static_cast<unsigned long long>(units),
                converged ? "" : " (not converged)");
  return buf;
}

/// Runs the closed loop on every connection: either for `seconds`, or over
/// exactly the op indices in `replay` (one list per connection).
std::vector<JobTrace> run_loop(
    Fleet& fleet, const std::function<CampaignJob(std::size_t)>& job_for,
    double seconds, const std::vector<std::vector<std::size_t>>* replay,
    Clock::time_point origin, double& wall_s) {
  std::vector<std::vector<JobTrace>> per_conn(kConnections);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto& out = per_conn[c];
      try {
        for (std::size_t i = 0;; ++i) {
          std::size_t k;
          if (replay != nullptr) {
            if (i >= (*replay)[c].size()) break;
            k = (*replay)[c][i];
          } else {
            if (seconds_since(t0) >= seconds) break;
            k = i * kConnections + c;
          }
          out.push_back(submit_job(fleet.channel(c), job_for(k), k, origin));
          follow_job(fleet.channel(c), out.back(), origin, false);
          if (!out.back().ok) break;  // a lost job leaves the stream unknown
        }
      } catch (const std::exception& e) {
        // A reply that does not decode fails the job in flight and ends
        // this connection's loop.
        if (out.empty() || out.back().ok) out.emplace_back();
        out.back().why = std::string("bad reply: ") + e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  wall_s = seconds_since(t0);
  std::vector<JobTrace> all;
  for (auto& v : per_conn) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// One in-process run of `job`, exactly as a batch campaign builds it.
struct Reference {
  std::string line;
  double engine_ms = 0.0;
  mpe::maxpower::EstimationResult result;
};
Reference reference(const CampaignJob& job, SpanLog* log, std::uint64_t op) {
  auto rt = mpe::maxpower::build_campaign_runtime(job);
  auto config = mpe::maxpower::campaign_engine_config(job);
  if (log != nullptr) config.fitter = std::make_shared<TimedFitter>(*log);
  const mpe::maxpower::Engine engine(config);
  const auto t0 = Clock::now();
  mpe::maxpower::EstimationResult r;
  if (log != nullptr) {
    log->current_op = op;
    mpe::maxpower::PopulationUnitSource inner(*rt.population);
    TimedUnitSource source(inner, *log);
    r = engine.run(source, job.seed);
  } else {
    r = engine.run(*rt.population, job.seed);
  }
  const double ms = seconds_since(t0) * 1e3;
  return {done_line(r.estimate, r.ci.lower, r.ci.upper, r.hyper_samples,
                    r.units_used, r.converged),
          ms, r};
}

}  // namespace

Result run_serve_fleet(const Args& args) {
  Result result;
  const std::string cli = args.root + "/.bench_build/mpe_cli";
  if (::access(cli.c_str(), X_OK) != 0) {
    throw std::runtime_error(cli + " is not built");
  }
  const std::string dir = run_dir(args);
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_dir{dir};
  const auto origin = Clock::now();

  // Set-up: daemon up, clients connected and greeted, workers started, and
  // every catalog entry run once as a warm-up — repeated, and the median
  // reported. The warm-ups are all queued before the workers start, half
  // on each connection: a worker that asks while no job is queued sleeps
  // 250 ms, and warm-ups sent one at a time locked into that wait on some
  // runs (set-ups of 0.93 s against 0.6 s on others).
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();  // the previous fleet is torn down outside the timing
    const auto t0 = Clock::now();
    fleet = std::make_unique<Fleet>(cli, dir + "/fleet" + std::to_string(i));
    for (std::size_t k = 0; k < kCatalog; ++k) {
      const auto job = make_job("warm" + std::to_string(k),
                                k % kCircuits.size(),
                                kTprob[k / kCircuits.size()]);
      if (!submit_job(fleet->channel(k % kConnections), job, k, origin)
               .why.empty()) {
        throw std::runtime_error("warm-up submit failed");
      }
    }
    fleet->start_workers();
    for (int c = 0; c < kConnections; ++c) {
      const std::string why =
          await_results(fleet->channel(c), kCatalog / kConnections);
      if (!why.empty()) throw std::runtime_error("warm-up failed: " + why);
    }
    setup_s.push_back(seconds_since(t0));
  }

  const auto op_job = [&](std::size_t k) { return job_at(args, k, "op"); };
  double wall_s = 0;
  const auto jobs = run_loop(*fleet, op_job,
                             args.trace ? args.seconds / 2 : args.seconds,
                             nullptr, origin, wall_s);
  const double rss = fleet->peak_rss_mb();

  // Oracle: every result byte-identical to an in-process Engine::run of its
  // catalog entry (the job name does not enter the result).
  std::map<std::size_t, std::string> expected;
  for (std::size_t spec = 0; spec < kCatalog; ++spec) {
    expected[spec] =
        reference(make_job("ref", spec % kCircuits.size(),
                           kTprob[spec / kCircuits.size()]),
                  nullptr, 0)
            .line;
  }
  result.attempted = jobs.size();
  std::vector<double> latency_ms;
  double units = 0;
  std::size_t mismatched = 0;
  for (const auto& t : jobs) {
    if (!t.ok) {
      ++result.failed;
      result.note("job " + std::to_string(t.k) + ": " + t.why);
      continue;
    }
    const auto& m = t.reply;
    const std::string got = done_line(m.estimate, m.ci_lower, m.ci_upper,
                                      m.hyper_samples, m.units, m.converged);
    if (!m.converged || got != expected[spec_at(args, t.k)]) {
      ++result.failed;
      ++mismatched;
      continue;
    }
    latency_ms.push_back((t.result - t.submit) * 1e3);
    units += static_cast<double>(m.units);
  }
  result.note("oracle: " + std::to_string(jobs.size()) +
              " results compared with in-process Engine::run of their "
              "catalog entry, " +
              std::to_string(mismatched) + " differ");
  if (latency_ms.empty()) result.fail_check("no job completed");
  if (result.failed > 0) result.fail_check("failed jobs");

  const double done = static_cast<double>(latency_ms.size());
  if (!args.trace) {
    const Tail tail = tail_latency(latency_ms);
    result.note("latency_tail_ms is " + tail.label() +
                " of " + std::to_string(tail.samples) + " jobs");
    result.note(setup_note(setup_s));
    result.add("setup_s", median(setup_s), "s");
    result.add("estimates_per_s", done / wall_s, "1/s");
    result.add("units_per_s", units / wall_s, "1/s");
    result.add("units_per_estimate", done > 0 ? units / done : 0.0, "count");
    result.add("latency_p50_ms", median(latency_ms), "ms");
    result.add("latency_tail_ms", tail.value, "ms");
    result.add("peak_rss_mb", rss, "MiB");
    return result;
  }

  // Traced half: the same jobs again, with every message boundary kept as a
  // span; then the scrape endpoint and a decorated in-process run per job.
  std::vector<std::vector<std::size_t>> replay(kConnections);
  for (const auto& t : jobs) replay[t.k % kConnections].push_back(t.k);
  double traced_wall = 0;
  const auto traced_job = [&](std::size_t k) { return job_at(args, k, "tr"); };
  const auto traced = run_loop(*fleet, traced_job, 0, &replay, origin,
                               traced_wall);
  const auto series = fleet->scrape();
  SpanLog log;
  reset_probe_counters();
  std::vector<double> admit, dispatch, assemble, overhead;
  std::map<std::size_t, std::string> first_pass;
  for (const auto& t : jobs) {
    const auto& m = t.reply;
    first_pass[t.k] = done_line(m.estimate, m.ci_lower, m.ci_upper,
                                m.hyper_samples, m.units, m.converged);
  }
  std::size_t identical = 0;
  double engine_s = 0, used = 0, hyper = 0;
  for (const auto& t : traced) {
    const auto& m = t.reply;
    const std::string got = done_line(m.estimate, m.ci_lower, m.ci_upper,
                                      m.hyper_samples, m.units, m.converged);
    if (t.ok && got == first_pass[t.k]) ++identical;
    const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
    if (t.accepted >= 0) {
      admit.push_back((t.accepted - t.submit) * 1e3);
      log.record(t.k, "server.admit", "op", ns(t.submit), ns(t.accepted));
    }
    if (t.first_event >= 0 && t.accepted >= 0) {
      dispatch.push_back((t.first_event - t.accepted) * 1e3);
      log.record(t.k, "dist.dispatch", "op", ns(t.accepted),
                 ns(t.first_event));
    }
    if (t.last_event >= 0 && t.result >= 0) {
      assemble.push_back((t.result - t.last_event) * 1e3);
      log.record(t.k, "server.assemble", "op", ns(t.last_event),
                 ns(t.result));
    }
    const Reference ref = reference(traced_job(t.k), &log, t.k);
    engine_s += ref.engine_ms / 1e3;
    used += static_cast<double>(ref.result.units_used);
    hyper += static_cast<double>(ref.result.hyper_samples);
    if (t.result >= 0) {
      overhead.push_back((t.result - t.submit) * 1e3 - ref.engine_ms);
    }
  }
  if (identical != jobs.size()) {
    result.failed += jobs.size() - identical;
    result.fail_check("traced results differ from untraced ones");
  }

  LayerValues v;
  const auto get = [&](const std::string& name) {
    const auto it = series.find(name);
    return it == series.end() ? 0.0 : it->second;
  };
  const double hits = get("mpe_server_cache_hits_total");
  const double misses = get("mpe_server_cache_misses_total");
  const double shards = get("mpe_coord_shard_latency_ms_count");
  const double jobs_done = get("mpe_server_jobs_done_total");
  v["server.admit_ms_p50"] = median(admit);
  v["dist.dispatch_ms_p50"] = median(dispatch);
  v["server.assemble_ms_p50"] = median(assemble);
  v["dist.overhead_ms_p50"] = median(overhead);
  v["server.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  v["server.rejected"] = get("mpe_server_jobs_rejected_total");
  v["dist.shards_per_job"] = jobs_done > 0 ? shards / jobs_done : 0;
  v["dist.shard_latency_ms_mean"] =
      shards > 0 ? get("mpe_coord_shard_latency_ms_sum") / shards : 0;

  const double draw_s = static_cast<double>(TimedUnitSource::fill_ns) / 1e9;
  const double fit_s = static_cast<double>(TimedFitter::fit_ns) / 1e9;
  const double calls = static_cast<double>(TimedFitter::calls);
  v["vectors.draw_s"] = draw_s;
  const double filled = static_cast<double>(TimedUnitSource::units);
  v["vectors.draw_units"] = filled;
  v["vectors.useful_ratio"] = filled > 0 ? used / filled : 0;
  v["evt.fit_s"] = fit_s;
  v["evt.fit_calls"] = calls;
  v["evt.fit_us_p50"] = median(log.durations_us("evt.fit"));
  v["evt.degenerate_ratio"] =
      calls > 0 ? static_cast<double>(TimedFitter::degenerate) / calls : 0;
  v["maxpower.run_s"] = engine_s;
  v["maxpower.hyper_samples_per_estimate"] =
      traced.empty() ? 0 : hyper / static_cast<double>(traced.size());
  v["util.pool_idle_ratio"] =
      engine_s > 0 ? 1.0 - (draw_s + fit_s) / engine_s : 0;  // 1 participant
  double build_s = 0, compile_s = 0, pairgen = 0, kernel = 0;
  for (std::size_t c = 0; c < kCircuits.size(); ++c) {
    auto t0 = Clock::now();
    const auto netlist =
        mpe::gen::build_preset(kCircuits[c], kJobSeed);
    build_s += seconds_since(t0);
    t0 = Clock::now();
    mpe::sim::GateProgram::compile(netlist, mpe::sim::PowerEvalOptions{}.tech);
    compile_s += seconds_since(t0);
    const mpe::vec::TransitionProbPairGenerator generator(netlist.num_inputs(),
                                                          0.5);
    pairgen += pairgen_ns_per_unit(generator, 50000, args.seed);
    kernel += kernel_ns_per_unit(netlist, generator, 50000, args.seed);
  }
  v["gen.build_s"] = build_s;
  v["sim.compile_s"] = compile_s;
  v["vectors.pairgen_ns_per_unit"] = pairgen / kCircuits.size();
  v["sim.kernel_ns_per_unit"] = kernel / kCircuits.size();
  const double untraced_rate = done / wall_s;
  const double traced_rate = static_cast<double>(traced.size()) / traced_wall;
  v["trace.untraced_estimates_per_s"] = untraced_rate;
  v["trace.traced_estimates_per_s"] = traced_rate;
  v["trace.overhead_pct"] = (untraced_rate - traced_rate) / untraced_rate * 100;
  v["trace.bit_identical_ratio"] =
      jobs.empty() ? 0 : static_cast<double>(identical) / jobs.size();
  add_layer_metrics(result, v);

  const std::string spans = bench_dir(args) + "/spans_serve_fleet.jsonl";
  if (!log.write(spans)) result.fail_check("cannot write " + spans);
  result.note("spans written to " + spans);
  return result;
}

}  // namespace perfbench
