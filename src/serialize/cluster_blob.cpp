#include "serialize/cluster_blob.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "index/hnsw_walk.h"

namespace dhnsw {
namespace {

// The view reads payload words in place, so the wire's little-endian order
// must be the host's.
static_assert(std::endian::native == std::endian::little);

constexpr uint32_t kNoMaxLevel = 0xFFFFFFFFu;  // empty-graph sentinel
constexpr uint16_t kMetricMask = 0x7;

void EncodeHeader(const ClusterHeader& h, BinaryWriter* w) {
  const size_t start = w->size();
  w->PutU32(h.magic);
  w->PutU16(h.version);
  w->PutU16(h.flags);
  w->PutU32(h.partition_id);
  w->PutU32(h.dim);
  w->PutU32(h.count);
  w->PutU32(h.m);
  w->PutU32(h.entry_point);
  w->PutU32(h.max_level);
  w->PutU64(h.payload_size);
  w->PutU32(h.payload_crc);
  w->PutU32(h.reserved);
  while (w->size() - start < ClusterHeader::kEncodedSize) w->PutU8(0);
  assert(w->size() - start == ClusterHeader::kEncodedSize);
}

Status DecodeHeader(BinaryReader* r, ClusterHeader* h) {
  const size_t start = r->offset();
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->magic));
  if (h->magic != ClusterHeader::kMagic) {
    return Status::Corruption("cluster blob: bad magic");
  }
  DHNSW_RETURN_IF_ERROR(r->GetU16(&h->version));
  if (h->version != ClusterHeader::kVersion) {
    return Status::Corruption("cluster blob: unsupported version");
  }
  DHNSW_RETURN_IF_ERROR(r->GetU16(&h->flags));
  if ((h->flags & ~kMetricMask) != 0) {
    return Status::Corruption("cluster blob: unknown flag bits");
  }
  if ((h->flags & kMetricMask) > static_cast<uint16_t>(Metric::kCosine)) {
    return Status::Corruption("cluster blob: unknown metric");
  }
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->partition_id));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->dim));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->count));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->m));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->entry_point));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->max_level));
  DHNSW_RETURN_IF_ERROR(r->GetU64(&h->payload_size));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->payload_crc));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->reserved));
  if (h->reserved != 0) return Status::Corruption("cluster blob: reserved word set");
  return r->Skip(ClusterHeader::kEncodedSize - (r->offset() - start));
}

}  // namespace

size_t EncodedClusterSize(const Cluster& cluster) {
  const HnswIndex& index = cluster.index;
  const size_t count = index.size();
  size_t payload = 0;
  payload += count * 4;                         // global ids
  payload += count * 4;                         // levels
  for (uint32_t id = 0; id < count; ++id) {     // adjacency
    for (uint32_t layer = 0; layer <= index.level(id); ++layer) {
      payload += 4 + index.neighbors(id, layer).size() * 4;
    }
  }
  payload += count * index.dim() * 4;           // vectors
  return ClusterHeader::kEncodedSize + payload;
}

std::vector<uint8_t> EncodeCluster(const Cluster& cluster) {
  const HnswIndex& index = cluster.index;
  assert(cluster.global_ids.size() == index.size());

  // Payload first (header needs its size + CRC).
  std::vector<uint8_t> payload;
  payload.reserve(EncodedClusterSize(cluster) - ClusterHeader::kEncodedSize);
  {
    BinaryWriter w(&payload);
    w.PutU32Array(cluster.global_ids);
    for (uint32_t id = 0; id < index.size(); ++id) w.PutU32(index.level(id));
    for (uint32_t id = 0; id < index.size(); ++id) {
      for (uint32_t layer = 0; layer <= index.level(id); ++layer) {
        const auto nbs = index.neighbors(id, layer);
        w.PutU32(static_cast<uint32_t>(nbs.size()));
        w.PutU32Array(nbs);
      }
    }
    w.PutF32Array(index.vectors());
  }

  ClusterHeader h;
  // Blobs are self-describing: the metric rides in the flags field so a
  // decoder (or a compactor on another node) never guesses it.
  h.flags = static_cast<uint16_t>(index.options().metric);
  h.partition_id = cluster.partition_id;
  h.dim = index.dim();
  h.count = static_cast<uint32_t>(index.size());
  h.m = index.options().M;
  h.entry_point = index.empty() ? 0 : index.entry_point();
  h.max_level = index.empty() ? kNoMaxLevel
                              : static_cast<uint32_t>(index.max_level_in_graph());
  h.payload_size = payload.size();
  h.payload_crc = Crc32c(payload);

  std::vector<uint8_t> out;
  out.reserve(ClusterHeader::kEncodedSize + payload.size());
  BinaryWriter w(&out);
  EncodeHeader(h, &w);
  w.PutBytes(payload);
  assert(out.size() == EncodedClusterSize(cluster));
  return out;
}

Result<ClusterHeader> PeekClusterHeader(std::span<const uint8_t> bytes) {
  BinaryReader r(bytes);
  ClusterHeader h;
  DHNSW_RETURN_IF_ERROR(DecodeHeader(&r, &h));
  return h;
}

bool ClusterView::PayloadAligned(std::span<const uint8_t> blob) noexcept {
  return reinterpret_cast<uintptr_t>(blob.data()) % 4 == 0;
}

std::span<const uint8_t> ClusterView::CopyAligned(std::span<const uint8_t> blob,
                                                  AlignedBuffer* storage) {
  *storage = AlignedBuffer(blob.size(), 64);
  std::memcpy(storage->data(), blob.data(), blob.size());
  return std::as_const(*storage).span();
}

Result<ClusterView> ClusterView::Parse(std::span<const uint8_t> blob,
                                       const ClusterExpect& expect) {
  ClusterView v;
  ClusterHeader& h = v.header_;
  BinaryReader r(blob);
  DHNSW_RETURN_IF_ERROR(DecodeHeader(&r, &h));
  // The payload CRC does not cover these fields, so each is cross-checked
  // against what the reader knows from CRC-checked metadata.
  if (expect.metric && v.metric() != *expect.metric) {
    return Status::Corruption("cluster blob: metric disagrees with the region header");
  }
  if (expect.dim && h.dim != *expect.dim) {
    return Status::Corruption("cluster blob: dim disagrees with the region header");
  }
  if (expect.partition_id && h.partition_id != *expect.partition_id) {
    return Status::Corruption("cluster blob: partition id disagrees with the table slot");
  }
  if (h.dim == 0) return Status::Corruption("cluster blob: zero dim");
  if (h.m < 2 || h.m > kMaxM) return Status::Corruption("cluster blob: implausible M");
  // DecodeHeader consumed kEncodedSize bytes, so the subtraction is safe.
  if (blob.size() - ClusterHeader::kEncodedSize < h.payload_size) {
    return Status::Corruption("cluster blob: payload truncated");
  }
  const std::span<const uint8_t> payload =
      blob.subspan(ClusterHeader::kEncodedSize, h.payload_size);
  if (reinterpret_cast<uintptr_t>(payload.data()) % 4 != 0) {
    return Status::InvalidArgument("cluster view: payload is not 4-byte aligned");
  }

  // Framing, before any allocation: ids, levels and rows are count, count
  // and count*dim words, and every node has at least one degree word. The
  // division keeps count*(dim+3) from overflowing.
  const uint32_t count = h.count;
  const uint64_t words = h.payload_size / 4;
  if (h.payload_size % 4 != 0 || words > UINT32_MAX ||
      (count > 0 && h.dim + uint64_t{3} > words / count)) {
    return Status::Corruption("cluster blob: payload framing does not fit payload_size");
  }
  if (Crc32c(payload) != h.payload_crc) {
    return Status::Corruption("cluster blob: payload CRC mismatch");
  }
  // The bytes reached this storage by memcpy or a socket read into memory
  // from an allocation function, which implicitly creates the u32 and float
  // objects read below; with the alignment checked above, reading them in
  // place is defined.
  v.words_ = reinterpret_cast<const uint32_t*>(payload.data());
  v.levels_ = v.words_ + count;
  const uint64_t row_words = uint64_t{count} * h.dim;
  const uint64_t adj_begin = 2 * uint64_t{count};
  const uint64_t adj_end = words - row_words;
  v.rows_ = reinterpret_cast<const float*>(v.words_ + adj_end);
  v.pair_ = ActiveKernels().Pair(v.metric());
  v.gather_ = ActiveKernels().Gather(v.metric());

  if (count == 0) {
    if (h.max_level != kNoMaxLevel || h.entry_point != 0 || adj_end != adj_begin) {
      return Status::Corruption("cluster blob: empty cluster with graph fields set");
    }
    return v;
  }

  // Levels are bounded by the header's max level, which must be the real one.
  uint64_t slots = 0;
  uint32_t top = 0;
  for (uint32_t id = 0; id < count; ++id) {
    const uint32_t level = v.levels_[id];
    if (level > h.max_level) {
      return Status::Corruption("cluster blob: node level above the header max level");
    }
    top = std::max(top, level);
    slots += uint64_t{level} + 1;
  }
  if (top != h.max_level) {
    return Status::Corruption("cluster blob: header max level disagrees with the nodes");
  }
  if (slots > adj_end - adj_begin) {
    return Status::Corruption("cluster blob: adjacency truncated");
  }
  if (h.entry_point >= count || v.levels_[h.entry_point] != top) {
    return Status::Corruption("cluster blob: entry point is not on the top level");
  }
  v.max_level_ = static_cast<int32_t>(top);

  // One pass over the adjacency: record where each list starts and make
  // every check HnswIndex::Validate makes (M is clamped to >= 2 there too).
  v.first_slot_.resize(count);
  v.slot_word_.resize(slots);
  uint64_t w = adj_begin;
  uint32_t slot = 0;
  for (uint32_t id = 0; id < count; ++id) {
    v.first_slot_[id] = slot;
    for (uint32_t layer = 0; layer <= v.levels_[id]; ++layer) {
      if (w >= adj_end) return Status::Corruption("cluster blob: adjacency truncated");
      const uint32_t degree = v.words_[w];
      const uint32_t cap = layer == 0 ? 2 * h.m : h.m;
      if (degree > cap) return Status::Corruption("cluster blob: degree cap exceeded");
      if (degree > adj_end - w - 1) {
        return Status::Corruption("cluster blob: adjacency truncated");
      }
      v.slot_word_[slot++] = static_cast<uint32_t>(w);
      for (const uint32_t nb : std::span<const uint32_t>(v.words_ + w + 1, degree)) {
        if (nb >= count) return Status::Corruption("cluster blob: neighbor id out of range");
        if (nb == id) return Status::Corruption("cluster blob: self loop");
        if (v.levels_[nb] < layer) {
          return Status::Corruption("cluster blob: neighbor does not reach layer");
        }
      }
      w += uint64_t{1} + degree;
    }
  }
  if (w != adj_end) {
    return Status::Corruption("cluster blob: adjacency does not end where the rows begin");
  }
  return v;
}

void ClusterView::Search(std::span<const float> query, size_t k, uint32_t ef,
                         std::vector<Scored>* out) const {
  assert(query.size() == dim());
  static thread_local SearchScratch scratch;
  hnsw_walk::Search(*this, query.data(), k, ef, scratch, out);
}

Result<Cluster> DecodeCluster(std::span<const uint8_t> bytes,
                              const HnswOptions& options_template) {
  ClusterExpect expect;
  expect.metric = options_template.metric;
  return DecodeCluster(bytes, options_template, expect);
}

Result<Cluster> DecodeCluster(std::span<const uint8_t> bytes,
                              const HnswOptions& options_template,
                              const ClusterExpect& expect) {
  AlignedBuffer realigned;
  if (!ClusterView::PayloadAligned(bytes)) bytes = ClusterView::CopyAligned(bytes, &realigned);
  DHNSW_ASSIGN_OR_RETURN(const ClusterView view, ClusterView::Parse(bytes, expect));

  const uint32_t count = static_cast<uint32_t>(view.size());
  std::vector<uint32_t> levels(count);
  std::vector<std::vector<std::vector<uint32_t>>> links(count);
  for (uint32_t id = 0; id < count; ++id) {
    levels[id] = view.level(id);
    links[id].resize(levels[id] + 1);
    for (uint32_t layer = 0; layer <= levels[id]; ++layer) {
      const std::span<const uint32_t> nbs = view.neighbors(id, layer);
      links[id][layer].assign(nbs.begin(), nbs.end());
    }
  }
  const std::span<const float> rows(view.rows(), static_cast<size_t>(count) * view.dim());
  HnswOptions options = options_template;
  options.M = view.M();
  options.metric = view.metric();
  DHNSW_ASSIGN_OR_RETURN(
      HnswIndex index,
      HnswIndex::FromRaw(view.dim(), options, std::vector<float>(rows.begin(), rows.end()),
                         std::move(levels), std::move(links), view.entry_point()));
  const std::span<const uint32_t> gids = view.global_ids();
  return Cluster(view.partition_id(), std::move(index),
                 std::vector<uint32_t>(gids.begin(), gids.end()));
}

}  // namespace dhnsw
