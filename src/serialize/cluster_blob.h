// Compact, versioned, checksummed serialization of one sub-HNSW cluster —
// the unit that lives in remote memory and crosses the wire on every cluster
// load (paper Fig. 4: "metadata, neighbor array for HNSW, and the associated
// floating-point vectors").
//
// Layout (little-endian):
//   [48-byte header][payload]
//   payload := global_ids u32[count]
//              levels     u32[count]
//              adjacency  per node, per layer 0..level: degree u32, u32[degree]
//              vectors    f32[count*dim]
// The header carries a CRC-32C of the payload so a torn RDMA read of a
// concurrently rebuilt cluster is detected instead of silently searched.
// Its last word is reserved and must be zero. Blobs written with PQ
// extension sections set it and flags bit 3, so they are rejected as
// corrupt rather than misread.
//
// Two readers share one parser. `ClusterView` validates a fetched blob and
// then searches it in place: adjacency and float rows are read straight from
// the fetched bytes, and only a small per-(node, layer) offset table is
// built. `DecodeCluster` parses the same view and copies it into an
// HnswIndex for callers that need a mutable graph (meta-HNSW load,
// compaction). Neither trusts the header, which the payload CRC does not
// cover: see ClusterView::Parse for the cross-checks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "index/hnsw.h"

namespace dhnsw {

/// Fixed-size on-wire header of a serialized cluster.
struct ClusterHeader {
  static constexpr uint32_t kMagic = 0x44484E57;  // "DHNW"
  static constexpr uint16_t kVersion = 1;
  static constexpr size_t kEncodedSize = 48;

  uint32_t magic = kMagic;
  uint16_t version = kVersion;
  uint16_t flags = 0;        ///< bits 0..2 carry the Metric; the rest must be clear
  uint32_t partition_id = 0;
  uint32_t dim = 0;
  uint32_t count = 0;
  uint32_t m = 0;            ///< HNSW M the graph was built with
  uint32_t entry_point = 0;
  uint32_t max_level = 0;
  uint64_t payload_size = 0;
  uint32_t payload_crc = 0;
  uint32_t reserved = 0;     ///< must be zero
};

/// A sub-HNSW cluster ready for serialization / freshly decoded: the graph
/// over partition-local ids plus the mapping back to dataset-global ids.
struct Cluster {
  uint32_t partition_id = 0;
  HnswIndex index;
  std::vector<uint32_t> global_ids;  ///< local id -> global id

  Cluster(uint32_t pid, HnswIndex idx, std::vector<uint32_t> gids)
      : partition_id(pid), index(std::move(idx)), global_ids(std::move(gids)) {}
};

/// Serializes `cluster` into a fresh byte vector.
std::vector<uint8_t> EncodeCluster(const Cluster& cluster);

/// Exact encoded size without materializing the bytes (layout planning).
size_t EncodedClusterSize(const Cluster& cluster);

/// What a reader already knows about a blob from CRC-checked metadata: the
/// RegionHeader's metric and dim, and the table slot it fetched. The parser
/// rejects a blob header that disagrees with any field that is set.
struct ClusterExpect {
  std::optional<Metric> metric = std::nullopt;
  std::optional<uint32_t> dim = std::nullopt;
  std::optional<uint32_t> partition_id = std::nullopt;
};

/// A validated, read-only sub-HNSW over the bytes of one cluster blob. It
/// holds pointers into those bytes, so it must not outlive them; whoever owns
/// the buffer owns the view beside it. Searching it gives bit-identical ids
/// and distances to DecodeCluster(...).index.Search: both run the walker in
/// index/hnsw_walk.h over the same graph.
class ClusterView {
 public:
  /// Validates `blob` in one pass and builds the view. Checks, all
  /// kCorruption on failure:
  ///  - header: magic, version, no unknown flag bits, a known metric, a zero
  ///    reserved word, 2 <= M <= kMaxM, dim > 0, and agreement with `expect`;
  ///  - the payload CRC;
  ///  - framing: ids, levels and rows fit in payload_size before anything is
  ///    allocated, and the adjacency ends exactly where the rows begin;
  ///  - graph: every level <= the header's max_level, which must equal the
  ///    largest level; the entry point sits on that level; and every check
  ///    HnswIndex::Validate makes (degree caps, neighbor ids in range, no
  ///    self loops, neighbors reach the layer).
  /// Trailing bytes after the payload are ignored. The payload must be
  /// 4-byte aligned in memory (PayloadAligned), else kInvalidArgument.
  static Result<ClusterView> Parse(std::span<const uint8_t> blob,
                                   const ClusterExpect& expect);

  /// Largest HNSW M a blob may declare. Readers that rebuild a graph with
  /// the blob's M (the compactor) size insert scratch by it, so a corrupt
  /// header must not pick it freely.
  static constexpr uint32_t kMaxM = 1u << 16;

  /// Whether `blob`'s payload starts 4-byte aligned in memory, so its u32
  /// fields and float rows can be read in place. The header is 48 bytes, so
  /// that is whether the blob itself starts 4-byte aligned: a fetch into a
  /// 64-aligned buffer at a 4-aligned offset always does.
  static bool PayloadAligned(std::span<const uint8_t> blob) noexcept;

  /// Copies `blob` into `*storage`, which is 64-byte aligned, and returns the
  /// copy's span.
  static std::span<const uint8_t> CopyAligned(std::span<const uint8_t> blob,
                                              AlignedBuffer* storage);

  uint32_t partition_id() const noexcept { return header_.partition_id; }
  Metric metric() const noexcept { return static_cast<Metric>(header_.flags & 0x7); }
  uint32_t M() const noexcept { return header_.m; }
  uint32_t level(uint32_t id) const noexcept { return levels_[id]; }
  std::span<const uint32_t> global_ids() const noexcept { return {words_, size()}; }
  std::span<const float> vector(uint32_t id) const noexcept {
    return {rows_ + static_cast<size_t>(id) * dim(), dim()};
  }

  /// --- graph accessor for index/hnsw_walk.h ---
  size_t size() const noexcept { return header_.count; }
  uint32_t dim() const noexcept { return header_.dim; }
  const float* rows() const noexcept { return rows_; }
  PairKernel pair() const noexcept { return pair_; }
  GatherKernel gather() const noexcept { return gather_; }
  uint32_t entry_point() const noexcept { return header_.entry_point; }
  int32_t max_level() const noexcept { return max_level_; }
  std::span<const uint32_t> neighbors(uint32_t id, uint32_t layer) const noexcept {
    const uint32_t w = slot_word_[first_slot_[id] + layer];
    return {words_ + w + 1, words_[w]};
  }

  /// Top-k search, same contract as HnswIndex::Search. Uses thread-local
  /// scratch: safe from many threads at once, allocation-free once warm.
  void Search(std::span<const float> query, size_t k, uint32_t ef,
              std::vector<Scored>* out) const;

 private:
  ClusterView() = default;

  ClusterHeader header_;
  int32_t max_level_ = -1;           ///< -1 for an empty cluster
  const uint32_t* words_ = nullptr;  ///< payload as u32 words: ids, levels, adjacency
  const uint32_t* levels_ = nullptr;
  const float* rows_ = nullptr;
  std::vector<uint32_t> first_slot_;  ///< node -> slot of its layer-0 list
  std::vector<uint32_t> slot_word_;   ///< (node, layer) slot -> word of its degree
  PairKernel pair_ = nullptr;
  GatherKernel gather_ = nullptr;
};

/// Parses and CRC-verifies a blob into a mutable HnswIndex: a ClusterView,
/// then a copy. `bytes` may be longer than the blob (e.g. a read that also
/// covered the overflow region); trailing bytes are ignored, and any memory
/// alignment is accepted. The blob's metric must equal
/// `options_template.metric`; the other HnswOptions besides M come from
/// `options_template`.
Result<Cluster> DecodeCluster(std::span<const uint8_t> bytes,
                              const HnswOptions& options_template);

/// Same, cross-checked against `expect` instead of the template's metric.
Result<Cluster> DecodeCluster(std::span<const uint8_t> bytes,
                              const HnswOptions& options_template,
                              const ClusterExpect& expect);

/// Reads just the header (no CRC check) — used to size follow-up reads.
Result<ClusterHeader> PeekClusterHeader(std::span<const uint8_t> bytes);

}  // namespace dhnsw
