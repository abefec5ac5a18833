// Overflow-record encoding for dynamically inserted vectors (paper §3.2).
//
// Each pair of adjacent clusters shares one overflow region; a record is
// appended with a remote Fetch-And-Add (space allocation) followed by a
// single RDMA_WRITE. Records are fixed-size for a given dimensionality so a
// reader can derive the record count from the used-byte counter alone:
//   record := global_id u32 | flags u32 | crc u32 | f32[dim]
// padded so the record size is a multiple of 8 (FAA alignment unit).
//
// `crc` is CRC32C over the whole record with the crc field zeroed; it is
// verified only for committed records (an in-flight slot is legitimately
// zero) and turns silent wire/bit-rot damage into StatusCode::kCorruption,
// which the compute path treats as retryable (re-read fetches a fresh copy).
//
// `flags` extends the paper's design with tombstones: a record with
// kTombstone marks `global_id` as deleted in this partition. Appending a
// tombstone costs the same two round trips as an insert; compaction
// physically removes both the tombstone and the vector it shadows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace dhnsw {

/// Record flag bits.
enum OverflowFlags : uint32_t {
  kOverflowNone = 0,
  kOverflowTombstone = 1u << 0,  ///< deletes `global_id`; vector payload unused
  /// Set by every encoder. The insert protocol claims a slot with FAA
  /// *before* the RDMA_WRITE lands, so a concurrent reader can observe a
  /// claimed-but-unwritten (zero-filled) slot; records without this bit are
  /// in flight and must be skipped, not decoded as data.
  kOverflowCommitted = 1u << 1,
};

/// One decoded overflow record.
struct OverflowRecord {
  uint32_t global_id = 0;
  uint32_t flags = 0;
  std::vector<float> vector;

  bool is_tombstone() const noexcept { return (flags & kOverflowTombstone) != 0; }
  bool is_committed() const noexcept { return (flags & kOverflowCommitted) != 0; }
};

/// Bytes one record occupies for `dim`-dimensional vectors (multiple of 8).
constexpr size_t OverflowRecordSize(uint32_t dim) {
  const size_t raw = 12 + static_cast<size_t>(dim) * 4;
  return (raw + 7) / 8 * 8;
}

/// Encodes a record into exactly OverflowRecordSize(dim) bytes at `dst`.
void EncodeOverflowRecord(uint32_t global_id, std::span<const float> vector,
                          std::span<uint8_t> dst, uint32_t flags = kOverflowNone);

/// Encodes a tombstone for `global_id` (`dim` fixes the record stride).
void EncodeOverflowTombstone(uint32_t global_id, uint32_t dim, std::span<uint8_t> dst);

/// Whether the slot starting at `slot` (at least 8 bytes) holds a committed
/// record — false for a slot claimed by FAA whose WRITE has not landed.
bool OverflowSlotCommitted(std::span<const uint8_t> slot) noexcept;

/// Decodes one record from `src` (must be >= OverflowRecordSize(dim)).
Result<OverflowRecord> DecodeOverflowRecord(std::span<const uint8_t> src, uint32_t dim);

/// Decodes `used_bytes / record_size` records from a raw overflow area,
/// silently dropping uncommitted (in-flight) slots.
Result<std::vector<OverflowRecord>> DecodeOverflowArea(std::span<const uint8_t> area,
                                                       uint64_t used_bytes, uint32_t dim);

}  // namespace dhnsw
