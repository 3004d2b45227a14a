// Circuit cache: the one place a campaign job's circuit fields become a
// netlist. Every executor builds a job's population through
// build_campaign_runtime(job, cache) (maxpower/campaign.hpp): a campaign
// run and a campaign worker each hold one cache, the server holds one for
// its lifetime.
//
// The expensive, immutable prefix of every job is the circuit itself —
// parsing a .bench/.v file (or generating a preset) and, for zero-delay
// jobs, lowering the netlist into the compiled gate tape. This cache holds
// that prefix behind a bounded LRU keyed by what decides the netlist:
//
//   * presets — "preset:<name>:<seed>";
//   * bench   — "bench:<name>:<crc32>:<bytes>": the file content plus the
//               netlist name read_bench_file derives from the basename, so
//               two paths to one file share an entry, an edited file
//               misses, and equal bytes under another name keep that name;
//   * verilog — "verilog:<crc32>:<bytes>" (the module names the netlist).
// A miss parses the bytes it hashed, never a second read of the file.
//
// Entries are immutable and shared by shared_ptr: an eviction never
// invalidates a running job. The compiled tape is lazy — the first
// zero-delay job on an entry pays the compile, later ones adopt it.
//
// Thread-safe: misses build under the lock, so concurrent lookups of one
// circuit parse it once. Counters are exposed per instance (stats()) and
// as the process-wide mpe_server_cache_* metrics, which count every cache
// in the process.
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

namespace mpe::maxpower {

/// Resident entries of a cache whose capacity is not given (the server's
/// --cache-cap default).
inline constexpr std::size_t kDefaultCircuitCacheCapacity = 16;

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
  static std::string key_for(const CampaignJob& job);

  /// Returns the cached entry for `job`'s circuit, parsing/generating and
  /// inserting it on miss (evicting the least-recently-used entry when
  /// full). Throws what the underlying reader throws (kIo/kParse/kBadData).
  std::shared_ptr<const CachedCircuit> lookup(const CampaignJob& job);

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

}  // namespace mpe::maxpower
