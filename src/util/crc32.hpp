// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for the durable on-disk
// formats: the run checkpoint (maxpower/checkpoint) appends a checksum and
// every ledger record (maxpower/ledger) carries one, so torn or bit-rotted
// files fail closed with ErrorCode::kCorruptData instead of resuming from
// silently wrong state. Incremental: feed bytes as they are produced or
// consumed, read value() at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mpe::util {

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  /// Folds `len` bytes at `data` into the checksum.
  void update(const void* data, std::size_t len);
  void update(std::string_view bytes) { update(bytes.data(), bytes.size()); }

  /// The finalized checksum of everything fed so far. Does not reset;
  /// further update() calls continue the same stream.
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot convenience: CRC-32 of `bytes`.
std::uint32_t crc32(std::string_view bytes);

}  // namespace mpe::util
