// RDMA-friendly remote-memory layout (paper §3.2, Fig. 4).
//
// One contiguous registered region:
//
//   offset 0    RegionHeader (64 B)
//   64          metadata table: one 64-B entry per cluster ("global metadata
//               block [that] records the offsets of each sub-HNSW cluster")
//   ...         serialized meta-HNSW blob (fetched once per compute instance)
//   ...         groups; each group holds TWO clusters at its two ends with a
//               SHARED overflow area between them:
//
//               [ blob A | A records -> ... free ... <- B records | blob B ]
//
// Cluster A's overflow grows upward from the end of blob A; cluster B's grows
// downward from the start of blob B. Either cluster plus its own overflow is
// therefore one contiguous byte range — readable with a single RDMA_READ —
// while the pair shares one free area instead of each reserving its own
// (paper: 0.75 MB per group for SIFT1M, 3.92 MB for GIST1M).
//
// The `overflow_used` field of each entry is the FAA target used by the
// lock-free insert protocol; it sits at an 8-aligned offset by construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/distance.h"

namespace dhnsw {

/// Fixed 64-byte header at region offset 0. The last padding word carries a
/// CRC32C over the preceding 56 bytes; decoders verify it, so a bit-flip
/// anywhere in the header surfaces as kCorruption instead of a bad offset.
struct RegionHeader {
  static constexpr uint32_t kMagic = 0x44484E52;  // "DHNR"
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kEncodedSize = 64;
  /// Byte offset of the CRC32C inside an encoded header.
  static constexpr size_t kCrcOffset = 56;

  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t num_clusters = 0;
  uint32_t dim = 0;
  uint32_t metric = 0;            ///< Metric enum value
  uint32_t record_size = 0;       ///< overflow record stride for this dim
  uint64_t table_offset = 0;      ///< metadata table start
  uint64_t meta_blob_offset = 0;  ///< serialized meta-HNSW
  uint64_t meta_blob_size = 0;
  uint64_t layout_version = 0;    ///< bumped by rebuild/compaction
};

/// Which end of its group a cluster occupies.
enum class OverflowDirection : uint32_t {
  kForward = 0,   ///< "A" side: records grow upward after the blob
  kBackward = 1,  ///< "B" side: records grow downward before the blob
};

/// Fixed 72-byte per-cluster metadata entry. The final word carries a CRC32C
/// over the *static* fields — bytes [0, 32) and [40, 68) — skipping
/// `overflow_used` at [32, 40), which the insert protocol mutates in place
/// with remote FAA and therefore cannot be covered by a write-once checksum.
/// Bytes [56, 68) are reserved: written as zero, ignored on read.
struct ClusterMeta {
  static constexpr size_t kEncodedSize = 72;
  /// Byte offset of `overflow_used` inside an encoded entry (FAA target).
  static constexpr uint64_t kUsedFieldOffset = 32;
  /// Byte offset of the static-field CRC32C inside an encoded entry.
  static constexpr size_t kCrcOffset = 68;

  uint64_t blob_offset = 0;        ///< within the owning shard's region
  uint64_t blob_size = 0;
  uint64_t overflow_base = 0;      ///< kForward: records start; kBackward: records *end*
  uint64_t overflow_capacity = 0;  ///< shared capacity of the whole group
  uint64_t overflow_used = 0;      ///< bytes this cluster has consumed
  OverflowDirection direction = OverflowDirection::kForward;
  uint32_t partner = kNoPartner;   ///< other cluster in the group
  uint32_t record_size = 0;
  /// Which memory instance of the pool stores this cluster's group. Slot 0
  /// is the primary (which also hosts the header/table/meta-HNSW); single-
  /// memory-node deployments use slot 0 everywhere.
  uint32_t node_slot = 0;

  static constexpr uint32_t kNoPartner = 0xFFFFFFFFu;

  /// Contiguous range covering blob + currently used overflow, given a
  /// possibly fresher `used` value.
  struct Range {
    uint64_t offset;
    uint64_t length;
  };
  Range ReadRange(uint64_t used) const noexcept {
    if (direction == OverflowDirection::kForward) {
      // overflow_base may sit a few alignment-pad bytes past the blob end;
      // the contiguous read must cover that gap too.
      return {blob_offset, (overflow_base - blob_offset) + used};
    }
    return {overflow_base - used, used + blob_size};
  }

  /// Byte offset of the overflow records *within* a ReadRange buffer.
  uint64_t OverflowOffsetInRead() const noexcept {
    return direction == OverflowDirection::kForward ? overflow_base - blob_offset : 0;
  }
  /// Byte offset of the blob within a ReadRange(used) buffer.
  uint64_t BlobOffsetInRead(uint64_t used) const noexcept {
    return direction == OverflowDirection::kForward ? 0 : used;
  }
  /// Remote offset where the record at byte-position `old_used` lands.
  uint64_t RecordOffset(uint64_t old_used) const noexcept {
    if (direction == OverflowDirection::kForward) {
      return overflow_base + old_used;
    }
    return overflow_base - old_used - record_size;
  }
};

/// Complete layout plan for a deployment (one or more shard regions).
struct LayoutPlan {
  RegionHeader header;
  std::vector<ClusterMeta> entries;
  uint64_t total_size = 0;           ///< primary (slot 0) region size
  /// Region size per memory instance; shard_sizes[0] == total_size. Groups
  /// are assigned to shards round-robin; the primary additionally carries
  /// the header, metadata table and meta-HNSW blob.
  std::vector<uint64_t> shard_sizes = {0};

  size_t num_shards() const noexcept { return shard_sizes.size(); }

  uint64_t TableEntryOffset(uint32_t cluster) const noexcept {
    return header.table_offset + static_cast<uint64_t>(cluster) * ClusterMeta::kEncodedSize;
  }
  /// Remote offset of cluster's FAA counter.
  uint64_t UsedCounterOffset(uint32_t cluster) const noexcept {
    return TableEntryOffset(cluster) + ClusterMeta::kUsedFieldOffset;
  }
};

struct LayoutConfig {
  /// Shared overflow bytes per group (per *pair* of clusters).
  uint64_t overflow_bytes_per_group = 768 * 1024;
  /// Alignment of blobs and groups inside the region.
  uint64_t alignment = 64;
};

/// Computes the layout from blob sizes. `blob_sizes[i]` is the encoded size
/// of cluster i; clusters are paired (0,1), (2,3), ... in order. An odd last
/// cluster gets a group of its own with the full overflow area. With
/// `num_shards` > 1 the groups are distributed round-robin across shard
/// regions (multi-instance memory pool); the header/table/meta blob always
/// live at the front of shard 0.
Result<LayoutPlan> PlanLayout(uint32_t dim, Metric metric, uint32_t record_size,
                              uint64_t meta_blob_size,
                              std::span<const uint64_t> blob_sizes,
                              const LayoutConfig& config, uint32_t num_shards = 1);

/// --- wire codecs (64 B each, little-endian) ---
void EncodeRegionHeader(const RegionHeader& h, std::span<uint8_t> dst);
Result<RegionHeader> DecodeRegionHeader(std::span<const uint8_t> src);
void EncodeClusterMeta(const ClusterMeta& m, std::span<uint8_t> dst);
Result<ClusterMeta> DecodeClusterMeta(std::span<const uint8_t> src);

}  // namespace dhnsw
