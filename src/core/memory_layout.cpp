#include "core/memory_layout.h"

#include <cassert>
#include <cstring>

#include "common/binary_io.h"
#include "common/crc32.h"

namespace dhnsw {
namespace {

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

/// CRC over a ClusterMeta entry's static fields: everything except the
/// FAA-mutated overflow_used word and the CRC word itself.
uint32_t ClusterMetaCrc(std::span<const uint8_t> entry) {
  uint32_t crc = Crc32c(entry.first(ClusterMeta::kUsedFieldOffset));
  return Crc32c(entry.subspan(ClusterMeta::kUsedFieldOffset + 8,
                              ClusterMeta::kCrcOffset -
                                  (ClusterMeta::kUsedFieldOffset + 8)),
                crc);
}

}  // namespace

Result<LayoutPlan> PlanLayout(uint32_t dim, Metric metric, uint32_t record_size,
                              uint64_t meta_blob_size,
                              std::span<const uint64_t> blob_sizes,
                              const LayoutConfig& config, uint32_t num_shards) {
  if (blob_sizes.empty()) return Status::InvalidArgument("PlanLayout: no clusters");
  if (record_size == 0 || record_size % 8 != 0) {
    return Status::InvalidArgument("PlanLayout: record_size must be a positive multiple of 8");
  }
  if (config.alignment < 64 || (config.alignment & (config.alignment - 1)) != 0) {
    return Status::InvalidArgument("PlanLayout: alignment must be a power of two >= 64");
  }
  if (num_shards == 0) return Status::InvalidArgument("PlanLayout: zero shards");

  LayoutPlan plan;
  const uint32_t nc = static_cast<uint32_t>(blob_sizes.size());
  plan.header.num_clusters = nc;
  plan.header.dim = dim;
  plan.header.metric = static_cast<uint32_t>(metric);
  plan.header.record_size = record_size;
  plan.header.table_offset = RegionHeader::kEncodedSize;

  // Per-shard allocation cursors. Shard 0 starts after header+table+meta.
  std::vector<uint64_t> cursors(num_shards, 0);
  uint64_t primary_front = plan.header.table_offset +
                           static_cast<uint64_t>(nc) * ClusterMeta::kEncodedSize;
  primary_front = AlignUp(primary_front, config.alignment);
  plan.header.meta_blob_offset = primary_front;
  plan.header.meta_blob_size = meta_blob_size;
  cursors[0] = AlignUp(primary_front + meta_blob_size, config.alignment);

  // Overflow area must hold at least one record so inserts are possible.
  const uint64_t overflow = AlignUp(
      std::max<uint64_t>(config.overflow_bytes_per_group, record_size), 8);

  plan.entries.resize(nc);
  uint32_t group_index = 0;
  for (uint32_t a = 0; a < nc; a += 2, ++group_index) {
    const bool has_b = a + 1 < nc;
    const uint32_t slot = group_index % num_shards;
    uint64_t& cursor = cursors[slot];
    const uint64_t group_start = AlignUp(cursor, config.alignment);

    ClusterMeta& ma = plan.entries[a];
    ma.blob_offset = group_start;
    ma.blob_size = blob_sizes[a];
    ma.direction = OverflowDirection::kForward;
    ma.overflow_base = AlignUp(ma.blob_offset + ma.blob_size, 8);
    ma.overflow_capacity = overflow;
    ma.record_size = record_size;
    ma.partner = has_b ? a + 1 : ClusterMeta::kNoPartner;
    ma.node_slot = slot;

    uint64_t group_end = ma.overflow_base + overflow;
    if (has_b) {
      ClusterMeta& mb = plan.entries[a + 1];
      mb.blob_offset = group_end;  // records grow downward from blob start
      mb.blob_size = blob_sizes[a + 1];
      mb.direction = OverflowDirection::kBackward;
      mb.overflow_base = mb.blob_offset;
      mb.overflow_capacity = overflow;
      mb.record_size = record_size;
      mb.partner = a;
      mb.node_slot = slot;
      group_end = mb.blob_offset + mb.blob_size;
    }
    cursor = group_end;
  }

  plan.shard_sizes.assign(num_shards, 0);
  for (uint32_t s = 0; s < num_shards; ++s) {
    // Even a shard that received no groups gets a minimal valid region.
    plan.shard_sizes[s] = AlignUp(std::max<uint64_t>(cursors[s], config.alignment),
                                  config.alignment);
  }
  plan.total_size = plan.shard_sizes[0];
  return plan;
}

void EncodeRegionHeader(const RegionHeader& h, std::span<uint8_t> dst) {
  assert(dst.size() >= RegionHeader::kEncodedSize);
  std::vector<uint8_t> buf;
  buf.reserve(RegionHeader::kEncodedSize);
  BinaryWriter w(&buf);
  w.PutU32(h.magic);
  w.PutU32(h.version);
  w.PutU32(h.num_clusters);
  w.PutU32(h.dim);
  w.PutU32(h.metric);
  w.PutU32(h.record_size);
  w.PutU64(h.table_offset);
  w.PutU64(h.meta_blob_offset);
  w.PutU64(h.meta_blob_size);
  w.PutU64(h.layout_version);
  assert(buf.size() == RegionHeader::kCrcOffset);
  w.PutU32(Crc32c({buf.data(), RegionHeader::kCrcOffset}));
  while (buf.size() < RegionHeader::kEncodedSize) buf.push_back(0);
  std::copy(buf.begin(), buf.end(), dst.begin());
}

Result<RegionHeader> DecodeRegionHeader(std::span<const uint8_t> src) {
  if (src.size() < RegionHeader::kEncodedSize) {
    return Status::Corruption("region header truncated");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, src.data() + RegionHeader::kCrcOffset, 4);
  if (stored_crc != Crc32c(src.first(RegionHeader::kCrcOffset))) {
    return Status::Corruption("region header crc mismatch");
  }
  BinaryReader r(src);
  RegionHeader h;
  DHNSW_RETURN_IF_ERROR(r.GetU32(&h.magic));
  if (h.magic != RegionHeader::kMagic) return Status::Corruption("region header: bad magic");
  DHNSW_RETURN_IF_ERROR(r.GetU32(&h.version));
  if (h.version != RegionHeader::kVersion) {
    return Status::Corruption("region header: unsupported version");
  }
  DHNSW_RETURN_IF_ERROR(r.GetU32(&h.num_clusters));
  DHNSW_RETURN_IF_ERROR(r.GetU32(&h.dim));
  DHNSW_RETURN_IF_ERROR(r.GetU32(&h.metric));
  DHNSW_RETURN_IF_ERROR(r.GetU32(&h.record_size));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&h.table_offset));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&h.meta_blob_offset));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&h.meta_blob_size));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&h.layout_version));
  return h;
}

void EncodeClusterMeta(const ClusterMeta& m, std::span<uint8_t> dst) {
  assert(dst.size() >= ClusterMeta::kEncodedSize);
  std::vector<uint8_t> buf;
  buf.reserve(ClusterMeta::kEncodedSize);
  BinaryWriter w(&buf);
  w.PutU64(m.blob_offset);
  w.PutU64(m.blob_size);
  w.PutU64(m.overflow_base);
  w.PutU64(m.overflow_capacity);
  // offset 32: overflow_used — keep in sync with kUsedFieldOffset.
  static_assert(ClusterMeta::kUsedFieldOffset == 32);
  w.PutU64(m.overflow_used);
  w.PutU32(static_cast<uint32_t>(m.direction));
  w.PutU32(m.partner);
  w.PutU32(m.record_size);
  w.PutU32(m.node_slot);
  buf.resize(ClusterMeta::kCrcOffset, 0);  // reserved [56, 68)
  w.PutU32(ClusterMetaCrc({buf.data(), buf.size()}));
  while (buf.size() < ClusterMeta::kEncodedSize) buf.push_back(0);
  std::copy(buf.begin(), buf.end(), dst.begin());
}

Result<ClusterMeta> DecodeClusterMeta(std::span<const uint8_t> src) {
  if (src.size() < ClusterMeta::kEncodedSize) {
    return Status::Corruption("cluster meta entry truncated");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, src.data() + ClusterMeta::kCrcOffset, 4);
  if (stored_crc != ClusterMetaCrc(src)) {
    return Status::Corruption("cluster meta crc mismatch");
  }
  BinaryReader r(src);
  ClusterMeta m;
  DHNSW_RETURN_IF_ERROR(r.GetU64(&m.blob_offset));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&m.blob_size));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&m.overflow_base));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&m.overflow_capacity));
  DHNSW_RETURN_IF_ERROR(r.GetU64(&m.overflow_used));
  uint32_t direction = 0;
  DHNSW_RETURN_IF_ERROR(r.GetU32(&direction));
  if (direction > 1) return Status::Corruption("cluster meta: bad direction");
  m.direction = static_cast<OverflowDirection>(direction);
  DHNSW_RETURN_IF_ERROR(r.GetU32(&m.partner));
  DHNSW_RETURN_IF_ERROR(r.GetU32(&m.record_size));
  DHNSW_RETURN_IF_ERROR(r.GetU32(&m.node_slot));
  return m;
}

}  // namespace dhnsw
