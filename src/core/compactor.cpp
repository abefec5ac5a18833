#include "core/compactor.h"

#include <algorithm>
#include <unordered_set>

#include "common/sim_clock.h"
#include "common/timer.h"
#include "core/meta_hnsw.h"
#include "rdma/queue_pair.h"
#include "serialize/cluster_blob.h"
#include "serialize/overflow.h"
#include "telemetry/metrics.h"

namespace dhnsw {
namespace {

/// Rebuilds one cluster: base graph minus tombstones, plus live overflow.
/// Vectors survive in (base order, then insert order), re-linked by a fresh
/// HNSW build so the folded inserts get first-class graph edges.
Cluster RebuildCluster(const Cluster& old_cluster,
                       const std::vector<OverflowRecord>& records,
                       const HnswOptions& sub_template,
                       CompactionStats* stats) {
  std::unordered_set<uint32_t> dead;
  for (const OverflowRecord& rec : records) {
    if (rec.is_tombstone()) dead.insert(rec.global_id);
  }

  HnswOptions options = sub_template;
  options.M = old_cluster.index.options().M;
  options.metric = old_cluster.index.options().metric;  // from the blob
  // Decorrelate level draws across partitions but keep determinism.
  options.seed = sub_template.seed * 0x9e3779b97f4a7c15ULL + old_cluster.partition_id;

  HnswIndex index(old_cluster.index.dim(), options);
  std::vector<uint32_t> global_ids;
  for (uint32_t local = 0; local < old_cluster.index.size(); ++local) {
    const uint32_t gid = old_cluster.global_ids[local];
    if (dead.count(gid)) {
      ++stats->tombstones_applied;
      continue;
    }
    index.Add(old_cluster.index.vector(local));
    global_ids.push_back(gid);
  }
  for (const OverflowRecord& rec : records) {
    if (rec.is_tombstone() || dead.count(rec.global_id)) continue;
    index.Add(rec.vector);
    global_ids.push_back(rec.global_id);
    ++stats->live_records_folded;
  }
  return Cluster(old_cluster.partition_id, std::move(index), std::move(global_ids));
}

}  // namespace

Result<CompactionStats> Compactor::Run(const MemoryNodeHandle& old_handle,
                                       std::unique_ptr<MemoryNode>* new_node,
                                       const LayoutConfig& layout) {
  CompactionStats stats;
  SimClock clock;
  rdma::QueuePair qp(fabric_, &clock);
  WallTimer run_timer;

  // Region header + metadata table, exactly like a compute node's bootstrap.
  AlignedBuffer header_buf(RegionHeader::kEncodedSize, 64);
  DHNSW_RETURN_IF_ERROR(qp.Read(old_handle.rkey, 0, header_buf.span()));
  DHNSW_ASSIGN_OR_RETURN(const RegionHeader header, DecodeRegionHeader(header_buf.span()));

  AlignedBuffer meta_buf(header.meta_blob_size, 64);
  DHNSW_RETURN_IF_ERROR(qp.Read(old_handle.rkey, header.meta_blob_offset, meta_buf.span()));
  ClusterExpect expect{.metric = static_cast<Metric>(header.metric), .dim = header.dim};
  DHNSW_ASSIGN_OR_RETURN(MetaHnsw meta, MetaHnsw::FromBlob(meta_buf.span(), expect));

  std::vector<ClusterMeta> table(header.num_clusters);
  {
    AlignedBuffer table_buf(
        static_cast<size_t>(header.num_clusters) * ClusterMeta::kEncodedSize, 64);
    DHNSW_RETURN_IF_ERROR(qp.Read(old_handle.rkey, header.table_offset, table_buf.span()));
    for (uint32_t c = 0; c < header.num_clusters; ++c) {
      DHNSW_ASSIGN_OR_RETURN(
          table[c], DecodeClusterMeta(table_buf.subspan(
                        static_cast<size_t>(c) * ClusterMeta::kEncodedSize,
                        ClusterMeta::kEncodedSize)));
    }
  }

  // Read + rebuild every cluster.
  std::vector<Cluster> rebuilt;
  rebuilt.reserve(header.num_clusters);
  for (uint32_t c = 0; c < header.num_clusters; ++c) {
    const ClusterMeta& m = table[c];
    const ClusterMeta::Range range = m.ReadRange(m.overflow_used);
    AlignedBuffer buf(range.length, 64);
    DHNSW_RETURN_IF_ERROR(
        qp.Read(old_handle.rkey_for_slot(m.node_slot), range.offset, buf.span()));

    expect.partition_id = c;
    DHNSW_ASSIGN_OR_RETURN(
        Cluster old_cluster,
        DecodeCluster(buf.subspan(m.BlobOffsetInRead(m.overflow_used), m.blob_size),
                      sub_hnsw_template_, expect));
    DHNSW_ASSIGN_OR_RETURN(
        std::vector<OverflowRecord> records,
        DecodeOverflowArea(buf.subspan(m.OverflowOffsetInRead(), m.overflow_used),
                           m.overflow_used, header.dim));
    rebuilt.push_back(RebuildCluster(old_cluster, records, sub_hnsw_template_, &stats));
  }
  stats.clusters = header.num_clusters;
  stats.bytes_read = qp.stats().bytes_read;
  stats.old_region_bytes = old_handle.region_size;

  // Provision the successor region (fresh node on the same fabric).
  auto node = std::make_unique<MemoryNode>(fabric_, "memory-node-compacted");
  DHNSW_RETURN_IF_ERROR(node->Provision(meta, rebuilt, layout, header.layout_version + 1,
                                        static_cast<uint32_t>(old_handle.num_shards())));
  stats.new_region_bytes = node->handle().region_size;
  *new_node = std::move(node);

  // Compaction is rare and heavyweight; per-run registry lookups are fine.
  telemetry::MetricRegistry& registry = telemetry::DefaultRegistry();
  registry.GetCounter("dhnsw_compaction_runs_total")->Add(1);
  registry.GetCounter("dhnsw_compaction_records_folded_total")->Add(stats.live_records_folded);
  registry.GetCounter("dhnsw_compaction_tombstones_applied_total")
      ->Add(stats.tombstones_applied);
  registry.GetCounter("dhnsw_compaction_bytes_read_total")->Add(stats.bytes_read);
  registry.GetHistogram("dhnsw_compaction_run_us")
      ->Record(static_cast<uint64_t>(run_timer.elapsed_us()));
  return stats;
}

}  // namespace dhnsw
