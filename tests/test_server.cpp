// The circuit cache every executor builds jobs through (content keying,
// LRU bounds, lazy compiled tape, eviction safety, concurrent misses) and
// the live Server daemon end to end —
// a real listener, real clients, real executor threads. The load-bearing
// claims: a server-run job returns byte-identical numbers to the same job
// run directly; concurrent clients each get exactly one reply per request
// (and repeated circuits hit the cache); a full queue answers structured
// backpressure; a garbage line gets an `error` reply without killing the
// connection; tripping the run control drains gracefully. The concurrency
// soak doubles as the TSan target for the server stack.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/circuit_cache.hpp"
#include "server/server.hpp"
#include "server/server_protocol.hpp"
#include "sim/technology.hpp"
#include "util/rng.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;
namespace md = mpe::dist;
namespace ms = mpe::server;
using namespace std::chrono_literals;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  return dir;
}

mp::CampaignJob tiny_job(const std::string& name, std::uint64_t seed) {
  mp::CampaignJob job;
  job.name = name;
  job.circuit = "c432";
  job.seed = seed;
  job.epsilon = 0.2;
  job.confidence = 0.8;
  job.max_hyper_samples = 100;
  return job;
}

/// A job that cannot converge quickly: tight epsilon, deep budget. Used to
/// hold the executor busy while backpressure/cancel paths are exercised.
mp::CampaignJob slow_job(const std::string& name) {
  mp::CampaignJob job = tiny_job(name, 11);
  job.epsilon = 0.001;
  job.confidence = 0.99;
  job.max_hyper_samples = 500;
  return job;
}

// ---------------------------------------------------------------- cache

TEST(ServerCache, PresetKeyIsNameAndSeed) {
  const auto a = mp::CircuitCache::key_for(tiny_job("x", 3));
  const auto b = mp::CircuitCache::key_for(tiny_job("y", 3));
  const auto c = mp::CircuitCache::key_for(tiny_job("x", 4));
  EXPECT_EQ(a, b);  // the job NAME is not part of the circuit identity
  EXPECT_NE(a, c);  // the generator seed is
  EXPECT_EQ(a.rfind("preset:", 0), 0u);
}

TEST(ServerCache, BenchKeyFollowsContentNotPath) {
  // One file name in two directories: the same netlist, one entry. An
  // edited copy is another circuit.
  const std::string dir = fresh_dir("server_cache_key");
  const std::string text = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n";
  std::filesystem::create_directories(dir + "/x");
  std::filesystem::create_directories(dir + "/y");
  std::filesystem::create_directories(dir + "/z");
  std::ofstream(dir + "/x/one.bench") << text;
  std::ofstream(dir + "/y/one.bench") << text;
  std::ofstream(dir + "/z/one.bench") << text + "# trailing comment\n";

  mp::CampaignJob x;
  x.name = "x";
  x.bench = dir + "/x/one.bench";
  mp::CampaignJob y = x;
  y.bench = dir + "/y/one.bench";
  mp::CampaignJob z = x;
  z.bench = dir + "/z/one.bench";

  EXPECT_EQ(mp::CircuitCache::key_for(x), mp::CircuitCache::key_for(y));
  EXPECT_NE(mp::CircuitCache::key_for(x), mp::CircuitCache::key_for(z));
  mp::CampaignJob missing = x;
  missing.bench = dir + "/absent.bench";
  EXPECT_THROW(mp::CircuitCache::key_for(missing), mpe::Error);
}

TEST(ServerCache, SameContentUnderAnotherNameKeepsItsName) {
  // read_bench_file names a netlist after the file's basename, and that
  // name reaches the run report and the checkpoint fingerprint — so equal
  // bytes under another name must not be served the first file's netlist.
  const std::string dir = fresh_dir("server_cache_name");
  const std::string text = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n";
  std::ofstream(dir + "/alpha.bench") << text;
  std::ofstream(dir + "/beta.bench") << text;
  mp::CampaignJob alpha;
  alpha.name = "alpha";
  alpha.bench = dir + "/alpha.bench";
  mp::CampaignJob beta = alpha;
  beta.name = "beta";
  beta.bench = dir + "/beta.bench";

  mp::CircuitCache cache(4);
  EXPECT_EQ(cache.lookup(alpha)->netlist().name(), "alpha");
  EXPECT_EQ(cache.lookup(beta)->netlist().name(), "beta");
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ServerCache, LruEvictsTheColdestEntry) {
  mp::CircuitCache cache(2);
  cache.lookup(tiny_job("a", 1));  // miss
  cache.lookup(tiny_job("b", 2));  // miss
  cache.lookup(tiny_job("a", 1));  // hit; seed 1 is now most recent
  cache.lookup(tiny_job("c", 3));  // miss; evicts seed 2
  cache.lookup(tiny_job("a", 1));  // hit: survived the eviction
  cache.lookup(tiny_job("b", 2));  // miss again: it was the one evicted

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(ServerCache, HitReturnsTheSameParsedNetlist) {
  mp::CircuitCache cache(4);
  const auto first = cache.lookup(tiny_job("a", 7));
  const auto second = cache.lookup(tiny_job("b", 7));
  EXPECT_EQ(first.get(), second.get());  // shared entry, parsed once
}

TEST(ServerCache, CompiledTapeIsLazyAndShared) {
  mp::CircuitCache cache(4);
  const auto entry = cache.lookup(tiny_job("a", 5));
  EXPECT_FALSE(entry->compiled());
  const mpe::sim::Technology tech;
  const auto program = entry->program(tech);
  ASSERT_NE(program, nullptr);
  EXPECT_TRUE(entry->compiled());
  EXPECT_EQ(entry->program(tech).get(), program.get());  // compiled once
}

TEST(ServerCache, ZeroDelayJobAdoptsTheCachedTape) {
  // A zero-delay job's population holds the cache's tape instead of
  // compiling its own; a loaded-delay job never asks for one.
  mp::CircuitCache cache(4);
  const auto loaded = tiny_job("loaded", 5);
  const auto loaded_rt = mp::build_campaign_runtime(loaded, cache);
  EXPECT_FALSE(cache.lookup(loaded)->compiled());
  const auto* loaded_pop =
      dynamic_cast<const mpe::vec::StreamingPopulation*>(loaded_rt.population);
  ASSERT_NE(loaded_pop, nullptr);
  EXPECT_FALSE(loaded_pop->kernel().has_value());

  auto zero = tiny_job("zero", 5);
  zero.delay = "zero";
  const auto program = cache.lookup(zero)->program(mpe::sim::Technology{});
  const long refs = program.use_count();
  const auto zero_rt = mp::build_campaign_runtime(zero, cache);
  const auto* zero_pop =
      dynamic_cast<const mpe::vec::StreamingPopulation*>(zero_rt.population);
  ASSERT_NE(zero_pop, nullptr);
  EXPECT_TRUE(zero_pop->kernel().has_value());
  EXPECT_GT(program.use_count(), refs);  // the population shares this tape
}

TEST(ServerCache, ConcurrentMissesBuildOnce) {
  // Eight executors asking for one uncached circuit at once: one parse,
  // one shared entry, seven hits.
  mp::CircuitCache cache(4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const mp::CachedCircuit>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = cache.lookup(tiny_job("c" + std::to_string(t), 3));
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1u);
  for (const auto& circuit : got) EXPECT_EQ(circuit.get(), got[0].get());
}

TEST(ServerCache, EvictionNeverInvalidatesALiveEntry) {
  mp::CircuitCache cache(1);
  const auto held = cache.lookup(tiny_job("a", 1));
  const std::size_t gates = held->netlist().num_gates();
  cache.lookup(tiny_job("b", 2));  // evicts seed 1 from the cache...
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(held->netlist().num_gates(), gates);  // ...but not from us
}

// ----------------------------------------------------------- live server

/// One protocol client talking to a live server over TCP.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : channel_(md::connect_tcp("127.0.0.1", port)) {}

  bool alive() const { return channel_ != nullptr; }

  void send(const std::string& line) {
    ASSERT_TRUE(channel_->send_line(line));
  }

  /// Blocks for the next decodable reply (30 s hard cap: a stuck server
  /// should fail the test, not hang the suite).
  ms::ServerMessage recv() {
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    std::string line;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto status = channel_->recv_line(line, 200ms);
      if (status == md::LineChannel::RecvStatus::kLine) {
        return ms::decode_server_message(line);
      }
      if (status == md::LineChannel::RecvStatus::kClosed) break;
    }
    ADD_FAILURE() << "no reply within 30s";
    ms::ServerMessage none;
    none.kind = ms::ServerMessageKind::kError;
    none.detail = "recv timeout";
    return none;
  }

  void handshake(const std::string& name) {
    send(ms::encode_hello(name));
    const auto welcome = recv();
    ASSERT_EQ(welcome.kind, ms::ServerMessageKind::kWelcome);
  }

  void submit(const std::string& id, const mp::CampaignJob& job,
              std::uint64_t deadline_ms = 0) {
    send(ms::encode_submit(id, mp::campaign_job_to_json(job), deadline_ms));
  }

  /// Reads replies until `id` reaches a terminal state: its result, or its
  /// rejection. Streams events into events_. Returns the terminal message.
  ms::ServerMessage await_terminal(const std::string& id) {
    while (true) {
      const auto msg = recv();
      switch (msg.kind) {
        case ms::ServerMessageKind::kEvent:
          ++events_;
          continue;
        case ms::ServerMessageKind::kAccepted:
        case ms::ServerMessageKind::kAck:
        case ms::ServerMessageKind::kDrain:
          continue;
        case ms::ServerMessageKind::kResult:
        case ms::ServerMessageKind::kRejected:
          if (msg.id == id) return msg;
          continue;
        default:
          ADD_FAILURE() << "unexpected reply kind while waiting for " << id;
          return msg;
      }
    }
  }

  /// Reads replies until the first event of `id` arrives (counted in
  /// events_); fails on its terminal reply instead.
  void await_event(const std::string& id) {
    while (true) {
      const auto msg = recv();
      if (msg.kind == ms::ServerMessageKind::kEvent && msg.id == id) {
        ++events_;
        return;
      }
      if (msg.kind == ms::ServerMessageKind::kAccepted) continue;
      ADD_FAILURE() << "no event for " << id << " before a terminal reply";
      return;
    }
  }

  std::size_t events() const { return events_; }

 private:
  std::unique_ptr<md::LineChannel> channel_;
  std::size_t events_ = 0;
};

/// A live server on an ephemeral TCP port, serving on its own thread.
class LiveServer {
 public:
  explicit LiveServer(ms::ServerOptions options)
      : options_(std::move(options)) {
    options_.tcp = true;
    options_.tcp_port = 0;
    // A default-constructed token is inert; stop() needs a live one.
    options_.control.cancel = mpe::util::CancellationToken::create();
    options_.waker = &waker_;
    server_ = std::make_unique<ms::Server>(options_);
    thread_ = std::thread([this] { report_ = server_->serve(); });
  }

  ~LiveServer() { stop(); }

  std::uint16_t port() const { return server_->tcp_port(); }
  std::uint16_t worker_port() const { return server_->worker_tcp_port(); }

  const ms::ServerReport& stop() {
    options_.control.cancel.request_stop();
    waker_.wake();  // the loop is blocked in poll(2)
    if (thread_.joinable()) thread_.join();
    return report_;
  }

 private:
  md::Waker waker_;
  ms::ServerOptions options_;
  std::unique_ptr<ms::Server> server_;
  std::thread thread_;
  ms::ServerReport report_;
};

TEST(ServerLive, JobMatchesADirectRunBitExactly) {
  ms::ServerOptions options;
  options.state_dir = fresh_dir("server_live_exact/state");
  LiveServer server{options};

  Client client(server.port());
  ASSERT_TRUE(client.alive());
  client.handshake("exact");
  client.submit("j1", tiny_job("j1", 7));
  const auto result = client.await_terminal("j1");
  ASSERT_EQ(result.kind, ms::ServerMessageKind::kResult);
  ASSERT_EQ(result.status, mp::JobStatus::kDone);
  EXPECT_FALSE(result.text.empty());  // full run report rides along
  EXPECT_GT(client.events(), 0u);     // trace events streamed live

  // The reference: the same job through the campaign runner's own path.
  mp::CampaignJob job = tiny_job("j1", 7);
  mp::JobRunOptions direct;
  direct.state_dir = fresh_dir("server_live_exact/direct");
  mpe::Rng jitter(1);
  mp::CircuitCache cache(1);
  const auto reference = mp::run_campaign_job(job, direct, jitter, cache);
  ASSERT_EQ(reference.status, mp::JobStatus::kDone);
  EXPECT_EQ(result.estimate, reference.result.estimate);  // bit-exact
  EXPECT_EQ(result.ci_lower, reference.result.ci.lower);
  EXPECT_EQ(result.ci_upper, reference.result.ci.upper);
  EXPECT_EQ(result.hyper_samples, reference.result.hyper_samples);
  EXPECT_EQ(result.units, reference.result.units_used);
  EXPECT_EQ(result.converged, reference.result.converged);
}

TEST(ServerLive, ConcurrentClientsGetExactlyOneReplyEachAndShareTheCache) {
  ms::ServerOptions options;
  // No state_dir: the four clients reuse the same request ids, and jobs
  // must not see (or race on) each other's checkpoints.
  options.scheduler.max_active = 2;
  LiveServer server{options};
  const std::uint16_t port = server.port();

  constexpr int kClients = 4;
  constexpr int kRequests = 3;
  std::vector<std::vector<double>> estimates(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([port, c, &estimates] {
      Client client(port);
      ASSERT_TRUE(client.alive());
      client.handshake("soak-" + std::to_string(c));
      for (int r = 0; r < kRequests; ++r) {
        // Same circuit+seed everywhere: every client must see the same
        // number and the cache must serve all but the first parse.
        const std::string id = "req-" + std::to_string(r);
        client.submit(id, tiny_job(id, 7));
        const auto result = client.await_terminal(id);
        ASSERT_EQ(result.kind, ms::ServerMessageKind::kResult) << result.id;
        ASSERT_EQ(result.status, mp::JobStatus::kDone);
        estimates[static_cast<std::size_t>(c)].push_back(result.estimate);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly-once: every request produced exactly one result, and identical
  // requests produced identical bits.
  ASSERT_FALSE(estimates[0].empty());
  for (const auto& per_client : estimates) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kRequests));
    for (const double estimate : per_client) {
      EXPECT_EQ(estimate, estimates[0][0]);
    }
  }

  Client stats_client(port);
  ASSERT_TRUE(stats_client.alive());
  stats_client.handshake("stats");
  stats_client.send(ms::encode_stats());
  const auto reply = stats_client.recv();
  ASSERT_EQ(reply.kind, ms::ServerMessageKind::kServerStats);
  EXPECT_EQ(reply.stats.done, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(reply.stats.accepted, reply.stats.done);
  EXPECT_GT(reply.stats.cache_hits, 0u);   // one parse served twelve jobs
  EXPECT_EQ(reply.stats.cache_misses, 1u);

  const auto& report = server.stop();
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.connections, static_cast<std::uint64_t>(kClients + 1));
}

TEST(ServerLive, FullQueueAnswersBackpressureAndCancelRecovers) {
  ms::ServerOptions options;
  options.scheduler.max_active = 1;
  options.scheduler.max_queued_per_client = 1;
  options.scheduler.max_queued_total = 1;
  LiveServer server{options};

  Client client(server.port());
  ASSERT_TRUE(client.alive());
  client.handshake("pressure");
  // A burst of three long jobs against one executor slot and a one-deep
  // queue: at least one must bounce with kResourceExhausted, and every
  // accepted one must still reach exactly one terminal reply. Terminal
  // order is timing-dependent (a cancelled queued job answers before the
  // running one finishes), so collect until all three ids are settled.
  client.submit("a", slow_job("a"));
  client.submit("b", slow_job("b"));
  client.submit("c", slow_job("c"));
  for (const char* id : {"a", "b", "c"}) client.send(ms::encode_cancel(id));

  std::map<std::string, ms::ServerMessage> terminal;
  while (terminal.size() < 3) {
    const auto msg = client.recv();
    if (msg.kind == ms::ServerMessageKind::kResult ||
        msg.kind == ms::ServerMessageKind::kRejected) {
      EXPECT_EQ(terminal.count(msg.id), 0u) << "duplicate reply for "
                                            << msg.id;
      terminal.emplace(msg.id, msg);
    } else if (msg.kind == ms::ServerMessageKind::kError) {
      FAIL() << "protocol error (or recv timeout): " << msg.detail;
    }
  }
  std::size_t rejected = 0;
  for (const auto& [id, msg] : terminal) {
    if (msg.kind == ms::ServerMessageKind::kRejected) {
      ++rejected;
      EXPECT_EQ(msg.code, mpe::ErrorCode::kResourceExhausted) << id;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_TRUE(server.stop().drained);
}

TEST(ServerLive, GarbageLineGetsAnErrorAndTheConnectionSurvives) {
  ms::ServerOptions options;
  LiveServer server{options};

  Client client(server.port());
  ASSERT_TRUE(client.alive());
  client.send("this is not a protocol line");
  auto reply = client.recv();
  EXPECT_EQ(reply.kind, ms::ServerMessageKind::kError);
  client.send(R"({"type":"mpe.server","v":1,"kind":"submit"})");
  reply = client.recv();
  EXPECT_EQ(reply.kind, ms::ServerMessageKind::kError);

  // Same connection, correct protocol: business as usual.
  client.handshake("resilient");
  client.submit("ok", tiny_job("ok", 3));
  const auto result = client.await_terminal("ok");
  EXPECT_EQ(result.kind, ms::ServerMessageKind::kResult);
  EXPECT_EQ(result.status, mp::JobStatus::kDone);
}

TEST(ServerLive, ControlTripDrainsGracefullyAndNotifiesClients) {
  ms::ServerOptions options;
  LiveServer server{options};

  Client client(server.port());
  ASSERT_TRUE(client.alive());
  client.handshake("drainee");

  const auto& report = server.stop();
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.connections, 1u);
  EXPECT_TRUE(report.stats.draining);

  const auto notice = client.recv();
  EXPECT_EQ(notice.kind, ms::ServerMessageKind::kDrain);
}

// ------------------------------------------------------ fleet execution

TEST(ServerFleet, JobsRunOnTheWorkerFleetByteIdenticalToLocal) {
  // The tentpole guarantee end to end: a server in fleet mode carves each
  // submitted job into shard leases, campaign workers compute them, and the
  // client's result line — numbers AND report text — is byte-identical to
  // the same server running jobs in-process. The local reference runs with
  // trace_capacity = 0 because fleet reports carry no tracer events.
  ms::ServerOptions local_options;
  local_options.state_dir = fresh_dir("server_fleet_ident/local");
  local_options.trace_capacity = 0;
  std::vector<ms::ServerMessage> local;
  {
    LiveServer server{local_options};
    Client client(server.port());
    ASSERT_TRUE(client.alive());
    client.handshake("local");
    client.submit("j1", tiny_job("j1", 7));
    local.push_back(client.await_terminal("j1"));
    client.submit("j2", tiny_job("j2", 9));
    local.push_back(client.await_terminal("j2"));
  }
  ASSERT_EQ(local[0].status, mp::JobStatus::kDone);
  ASSERT_EQ(local[1].status, mp::JobStatus::kDone);

  ms::ServerOptions options;
  options.state_dir = fresh_dir("server_fleet_ident/state");
  options.fleet.enabled = true;
  options.fleet.worker_tcp = true;   // port 0: kernel-assigned
  options.fleet.lease = std::chrono::milliseconds(2000);
  LiveServer server{options};
  ASSERT_NE(server.worker_port(), 0u);

  // Two campaign workers dial the worker-facing listener, each with its own
  // state directory (the cross-host posture: nothing shared but the
  // protocol).
  auto worker_main = [&](const std::string& id) {
    md::WorkerConfig worker;
    worker.tcp_port = server.worker_port();
    worker.worker_id = id;
    worker.state_dir = fresh_dir("server_fleet_ident/" + id);
    worker.heartbeat = 100ms;
    return md::run_worker(worker);
  };
  md::WorkerSummary s0, s1;
  std::thread w0([&] { s0 = worker_main("w0"); });
  std::thread w1([&] { s1 = worker_main("w1"); });

  Client client(server.port());
  ASSERT_TRUE(client.alive());
  client.handshake("fleet");
  client.submit("j1", tiny_job("j1", 7));
  const auto r1 = client.await_terminal("j1");
  client.submit("j2", tiny_job("j2", 9));
  const auto r2 = client.await_terminal("j2");

  // Shutting the server down drains the embedded coordinator; lingering
  // workers are told to go home and exit `drained`.
  const auto& report = server.stop();
  w0.join();
  w1.join();
  EXPECT_TRUE(report.drained);
  EXPECT_TRUE(s0.drained);
  EXPECT_TRUE(s1.drained);
  // The fleet actually computed shards — execution was not local.
  EXPECT_GT(s0.shards + s1.shards, 0u);

  for (std::size_t i = 0; const auto* fleet : {&r1, &r2}) {
    const ms::ServerMessage& ref = local[i++];
    ASSERT_EQ(fleet->kind, ms::ServerMessageKind::kResult);
    ASSERT_EQ(fleet->status, mp::JobStatus::kDone);
    EXPECT_EQ(fleet->estimate, ref.estimate);  // bit-exact
    EXPECT_EQ(fleet->ci_lower, ref.ci_lower);
    EXPECT_EQ(fleet->ci_upper, ref.ci_upper);
    EXPECT_EQ(fleet->hyper_samples, ref.hyper_samples);
    EXPECT_EQ(fleet->units, ref.units);
    EXPECT_EQ(fleet->converged, ref.converged);
    EXPECT_EQ(fleet->text, ref.text);  // the whole report, byte-identical
  }
  // Shard progress streamed to the submitter as events.
  EXPECT_GT(client.events(), 0u);
}

TEST(ServerFleet, CancelAbandonsTheFleetJobAndAnswersStopped) {
  ms::ServerOptions options;
  options.state_dir = fresh_dir("server_fleet_cancel/state");
  options.fleet.enabled = true;
  options.fleet.worker_tcp = true;
  options.fleet.lease = std::chrono::milliseconds(2000);
  LiveServer server{options};

  auto worker_main = [&] {
    md::WorkerConfig worker;
    worker.tcp_port = server.worker_port();
    worker.worker_id = "w0";
    worker.state_dir = fresh_dir("server_fleet_cancel/w0");
    worker.heartbeat = 100ms;
    return md::run_worker(worker);
  };
  md::WorkerSummary s0;
  std::thread w0([&] { s0 = worker_main(); });

  Client client(server.port());
  ASSERT_TRUE(client.alive());
  client.handshake("cancel");
  client.submit("slow", slow_job("slow"));
  // Cancel a job the fleet is computing: the first shard_done event shows
  // the worker joined and holds the job's shards.
  client.await_event("slow");
  client.send(ms::encode_cancel("slow"));
  const auto result = client.await_terminal("slow");
  ASSERT_EQ(result.kind, ms::ServerMessageKind::kResult);
  EXPECT_EQ(result.status, mp::JobStatus::kStopped);
  EXPECT_EQ(result.code, mpe::ErrorCode::kCancelled);

  EXPECT_TRUE(server.stop().drained);
  w0.join();
  EXPECT_TRUE(s0.drained);
}

TEST(ServerFleetParking, SubmitReachesAParkedWorkerAtOnce) {
  // An idle worker's request is held, not answered `wait`; a submit then
  // reaches it within one loop iteration instead of one wait period
  // (250 ms), and the drain answers it at once.
  const std::string dir = fresh_dir("server_fleet_park");
  ms::ServerOptions options;
  options.state_dir = dir;
  options.fleet.enabled = true;
  options.fleet.worker_socket = dir + "/workers.sock";
  options.fleet.shard_size = 16;
  LiveServer server{options};

  auto worker = md::connect_unix(dir + "/workers.sock");
  ASSERT_NE(worker, nullptr);
  const auto reply = [&](std::chrono::milliseconds timeout) {
    std::string line;
    if (worker->recv_line(line, timeout) !=
        md::LineChannel::RecvStatus::kLine) {
      return md::MessageKind::kError;  // no reply
    }
    return md::decode_message(line).kind;
  };
  ASSERT_TRUE(worker->send_line(md::encode_hello("raw")));
  ASSERT_EQ(reply(10000ms), md::MessageKind::kAck);
  ASSERT_TRUE(worker->send_line(md::encode_request("raw")));
  EXPECT_EQ(reply(100ms), md::MessageKind::kError);  // parked: no reply

  Client client(server.port());
  ASSERT_TRUE(client.alive());
  client.handshake("park");
  const auto submitted = std::chrono::steady_clock::now();
  client.submit("j1", tiny_job("j1", 7));
  EXPECT_EQ(reply(10000ms), md::MessageKind::kShardLease);
  EXPECT_LT(std::chrono::steady_clock::now() - submitted, 50ms);

  // Take the job back off the fleet, then park again and drain.
  client.send(ms::encode_cancel("j1"));
  EXPECT_EQ(client.await_terminal("j1").status, mp::JobStatus::kStopped);
  ASSERT_TRUE(worker->send_line(md::encode_request("raw")));
  EXPECT_EQ(reply(100ms), md::MessageKind::kError);
  std::thread stopper([&server] { EXPECT_TRUE(server.stop().drained); });
  EXPECT_EQ(reply(10000ms), md::MessageKind::kDrain);
  worker.reset();  // hang up so the server's linger ends
  stopper.join();
}

TEST(ServerLive, UnixSocketServesTheSameProtocol) {
  const std::string dir = fresh_dir("server_live_unix");
  ms::ServerOptions options;
  options.unix_socket = dir + "/mpe.sock";
  options.control.cancel = mpe::util::CancellationToken::create();
  md::Waker waker;
  options.waker = &waker;
  ms::Server server(options);
  std::thread thread([&server] { server.serve(); });

  auto channel = md::connect_unix(dir + "/mpe.sock");
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(channel->send_line(ms::encode_hello("unix-client")));
  std::string line;
  ASSERT_EQ(channel->recv_line(line, 10000ms),
            md::LineChannel::RecvStatus::kLine);
  EXPECT_EQ(ms::decode_server_message(line).kind,
            ms::ServerMessageKind::kWelcome);
  ASSERT_TRUE(channel->send_line(ms::encode_stats()));
  ASSERT_EQ(channel->recv_line(line, 10000ms),
            md::LineChannel::RecvStatus::kLine);
  EXPECT_EQ(ms::decode_server_message(line).kind,
            ms::ServerMessageKind::kServerStats);

  options.control.cancel.request_stop();
  waker.wake();
  thread.join();
}

}  // namespace
