#include "maxpower/circuit_cache.hpp"

#include <utility>

#include "circuit/bench_io.hpp"
#include "circuit/verilog_io.hpp"
#include "gen/presets.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace mpe::maxpower {

namespace {

struct CacheMetrics {
  util::Counter hits = util::MetricRegistry::global().counter(
      "mpe_server_cache_hits_total");
  util::Counter misses = util::MetricRegistry::global().counter(
      "mpe_server_cache_misses_total");
  util::Counter evictions = util::MetricRegistry::global().counter(
      "mpe_server_cache_evictions_total");
};

CacheMetrics& cm() {
  static CacheMetrics metrics;
  return metrics;
}

/// A job's circuit source: its cache key and, for file-backed circuits,
/// the bytes the key was computed over.
struct Source {
  std::string key;
  std::string content;
};

Source source_for(const CampaignJob& job) {
  if (job.bench.empty() && job.verilog.empty()) {
    return {"preset:" + (job.circuit.empty() ? std::string("c432")
                                             : job.circuit) +
                ":" + std::to_string(job.seed),
            {}};
  }
  // File-backed circuits are keyed by content, never by path; a .bench
  // netlist also carries the name its basename gives it.
  Source s;
  s.content = util::read_file(job.bench.empty() ? job.verilog : job.bench);
  s.key = job.bench.empty()
              ? "verilog:"
              : "bench:" + circuit::bench_file_netlist_name(job.bench) + ":";
  s.key += std::to_string(util::crc32(s.content)) + ":" +
           std::to_string(s.content.size());
  return s;
}

circuit::Netlist build_netlist(const CampaignJob& job,
                               const std::string& content) {
  if (!job.bench.empty()) {
    return circuit::read_bench_string(
        content, circuit::bench_file_netlist_name(job.bench));
  }
  if (!job.verilog.empty()) return circuit::read_verilog_string(content);
  return gen::build_preset(job.circuit.empty() ? "c432" : job.circuit,
                           job.seed);
}

}  // namespace

CachedCircuit::CachedCircuit(circuit::Netlist netlist)
    : netlist_(std::move(netlist)) {}

std::shared_ptr<const sim::GateProgram> CachedCircuit::program(
    const sim::Technology& tech) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!program_) {
    program_ = sim::GateProgram::compile(netlist_, tech);
  }
  return program_;
}

bool CachedCircuit::compiled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return program_ != nullptr;
}

CircuitCache::CircuitCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::string CircuitCache::key_for(const CampaignJob& job) {
  return source_for(job).key;
}

std::shared_ptr<const CachedCircuit> CircuitCache::lookup(
    const CampaignJob& job) {
  const Source source = source_for(job);
  // Build under the lock: serializing two concurrent misses for the same
  // circuit is the point of the cache.
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = by_key_.find(source.key); it != by_key_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
    ++hits_;
    cm().hits.inc();
    return it->second->circuit;
  }
  ++misses_;
  cm().misses.inc();
  auto circuit = std::make_shared<const CachedCircuit>(
      build_netlist(job, source.content));
  lru_.push_front(Entry{source.key, circuit});
  by_key_[source.key] = lru_.begin();
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();  // holders keep their shared_ptr; only our ref drops
    ++evictions_;
    cm().evictions.inc();
  }
  return circuit;
}

CircuitCache::Stats CircuitCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, evictions_, lru_.size(), capacity_};
}

}  // namespace mpe::maxpower
