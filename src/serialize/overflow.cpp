#include "serialize/overflow.h"

#include <cassert>
#include <cstring>

#include "common/crc32.h"

namespace dhnsw {

namespace {

/// CRC over the full record with the crc field (bytes [8, 12)) zeroed, so
/// the checksum covers id, flags, vector payload, and padding.
uint32_t RecordCrc(std::span<const uint8_t> record) {
  uint32_t crc = Crc32c(record.first(8));
  const uint8_t kZeros[4] = {0, 0, 0, 0};
  crc = Crc32c({kZeros, 4}, crc);
  return Crc32c(record.subspan(12), crc);
}

}  // namespace

void EncodeOverflowRecord(uint32_t global_id, std::span<const float> vector,
                          std::span<uint8_t> dst, uint32_t flags) {
  const uint32_t dim = static_cast<uint32_t>(vector.size());
  const size_t rec = OverflowRecordSize(dim);
  assert(dst.size() >= rec);
  std::memset(dst.data(), 0, rec);
  flags |= kOverflowCommitted;
  std::memcpy(dst.data(), &global_id, 4);
  std::memcpy(dst.data() + 4, &flags, 4);
  std::memcpy(dst.data() + 12, vector.data(), vector.size() * 4);
  const uint32_t crc = RecordCrc(dst.first(rec));
  std::memcpy(dst.data() + 8, &crc, 4);
}

void EncodeOverflowTombstone(uint32_t global_id, uint32_t dim, std::span<uint8_t> dst) {
  const size_t rec = OverflowRecordSize(dim);
  assert(dst.size() >= rec);
  std::memset(dst.data(), 0, rec);
  const uint32_t flags = kOverflowTombstone | kOverflowCommitted;
  std::memcpy(dst.data(), &global_id, 4);
  std::memcpy(dst.data() + 4, &flags, 4);
  const uint32_t crc = RecordCrc(dst.first(rec));
  std::memcpy(dst.data() + 8, &crc, 4);
}

bool OverflowSlotCommitted(std::span<const uint8_t> slot) noexcept {
  uint32_t flags = 0;
  std::memcpy(&flags, slot.data() + 4, 4);
  return (flags & kOverflowCommitted) != 0;
}

Result<OverflowRecord> DecodeOverflowRecord(std::span<const uint8_t> src, uint32_t dim) {
  const size_t rec = OverflowRecordSize(dim);
  if (src.size() < rec) {
    return Status::Corruption("overflow record truncated");
  }
  OverflowRecord out;
  std::memcpy(&out.global_id, src.data(), 4);
  std::memcpy(&out.flags, src.data() + 4, 4);
  // An uncommitted slot is legitimately all-zero (FAA landed, WRITE in
  // flight); its crc field is meaningless and must not be checked.
  if (out.is_committed()) {
    uint32_t stored = 0;
    std::memcpy(&stored, src.data() + 8, 4);
    if (stored != RecordCrc(src.first(rec))) {
      return Status::Corruption("overflow record crc mismatch");
    }
  }
  out.vector.resize(dim);
  std::memcpy(out.vector.data(), src.data() + 12, static_cast<size_t>(dim) * 4);
  return out;
}

Result<std::vector<OverflowRecord>> DecodeOverflowArea(std::span<const uint8_t> area,
                                                       uint64_t used_bytes, uint32_t dim) {
  const size_t rec = OverflowRecordSize(dim);
  if (used_bytes > area.size()) {
    return Status::Corruption("overflow used_bytes exceeds area");
  }
  if (used_bytes % rec != 0) {
    return Status::Corruption("overflow used_bytes not a record multiple");
  }
  std::vector<OverflowRecord> out;
  out.reserve(used_bytes / rec);
  for (uint64_t off = 0; off < used_bytes; off += rec) {
    DHNSW_ASSIGN_OR_RETURN(OverflowRecord r,
                           DecodeOverflowRecord(area.subspan(off, rec), dim));
    // Claimed-but-unwritten slot (FAA landed, WRITE still in flight): skip.
    if (!r.is_committed()) continue;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace dhnsw
