// Shared circuit cache: parse once, serve thousands of requests.
//
// The expensive, immutable prefix of every estimation job is the circuit
// itself — parsing a .bench/.v file (or generating a preset) and, for
// zero-delay jobs, lowering the netlist into the compiled SoA gate tape.
// Everything downstream (evaluator, generator, population, engine run) is
// cheap per-request state. This cache holds that prefix behind a bounded
// LRU keyed by circuit *content*:
//
//   * presets        — "preset:<name>:<seed>" (content-addressed by
//                      construction: a preset+seed pair always builds the
//                      same netlist);
//   * bench/verilog  — "bench:<crc32>:<bytes>" over the file CONTENT, so
//                      two paths to the same file share an entry and an
//                      edited file misses instead of serving a stale parse.
//
// Entries are immutable and shared by shared_ptr: an eviction never
// invalidates a running job, it only drops the cache's own reference. The
// compiled gate tape is lazy — first zero-delay job on an entry pays the
// compile, later ones adopt the shared program (passed to the
// StreamingPopulation constructor, which then compiles nothing).
//
// Thread-safe: lookups may race from every executor thread. Builds happen
// under the lock (serializing two concurrent misses for the same circuit
// is exactly the "parse once" we want). Hit/miss/eviction counters are
// exposed both directly (stats(), for tests and the stats protocol reply)
// and as mpe_server_cache_* metrics when the global registry is enabled.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "circuit/netlist.hpp"
#include "maxpower/campaign.hpp"
#include "sim/gate_program.hpp"
#include "sim/technology.hpp"

namespace mpe::server {

/// One cached circuit: the parsed netlist plus (lazily) its compiled tape.
class CachedCircuit {
 public:
  explicit CachedCircuit(circuit::Netlist netlist);

  const circuit::Netlist& netlist() const { return netlist_; }

  /// The compiled gate tape for `tech`, lowering it on first use. All
  /// current callers use the default technology, so one slot suffices;
  /// thread-safe.
  std::shared_ptr<const sim::GateProgram> program(
      const sim::Technology& tech) const;

  /// True when program() has already compiled (test/observability hook).
  bool compiled() const;

 private:
  circuit::Netlist netlist_;
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const sim::GateProgram> program_;
};

class CircuitCache {
 public:
  /// `capacity` = max resident entries; at least 1.
  explicit CircuitCache(std::size_t capacity);

  /// The cache key for `job`'s circuit source. Reads bench/verilog file
  /// content (throws Error(kIo) when unreadable). Exposed for tests.
  static std::string key_for(const maxpower::CampaignJob& job);

  /// Returns the cached entry for `job`'s circuit, parsing/generating and
  /// inserting it on miss (evicting the least-recently-used entry when
  /// full). Throws what the underlying reader throws (kIo/kParse/kBadData).
  std::shared_ptr<const CachedCircuit> lookup(
      const maxpower::CampaignJob& job);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedCircuit> circuit;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// Most-recently-used at the front; eviction pops the back.
  std::list<Entry> lru_;
  std::map<std::string, std::list<Entry>::iterator> by_key_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace mpe::server
