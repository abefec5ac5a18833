#include "core/memory_node.h"

#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "index/distance.h"
#include "serialize/overflow.h"
#include "telemetry/metrics.h"

namespace dhnsw {

MemoryNode::MemoryNode(rdma::Fabric* fabric, std::string name)
    : fabric_(fabric), node_(fabric->AddNode(std::move(name))) {}

Status MemoryNode::Provision(const MetaHnsw& meta, const std::vector<Cluster>& clusters,
                             const LayoutConfig& config, uint64_t layout_version,
                             uint32_t num_shards, size_t encode_threads) {
  if (provisioned()) return Status::InvalidArgument("MemoryNode already provisioned");
  if (clusters.empty()) return Status::InvalidArgument("Provision: no clusters");
  WallTimer provision_timer;

  std::unique_ptr<ThreadPool> pool;
  if (encode_threads > 1 && clusters.size() > 1) {
    pool = std::make_unique<ThreadPool>(encode_threads);
  }
  // Per-cluster fan-out with the pool's exception contract surfaced as a
  // Status (a throwing encode task must fail the provision, not vanish).
  const auto for_each_cluster = [&](const char* stage,
                                    const std::function<void(size_t)>& fn) -> Status {
    try {
      if (pool) {
        pool->ParallelFor(clusters.size(), fn);
      } else {
        for (size_t c = 0; c < clusters.size(); ++c) fn(c);
      }
    } catch (const std::exception& e) {
      return Status::Internal(std::string("Provision ") + stage + " failed: " + e.what());
    }
    return Status::Ok();
  };

  // Analyze: exact blob sizes (EncodedClusterSize mirrors EncodeCluster
  // byte-for-byte), one cluster per task. The layout is planned from these
  // predictions so the encode below can stream each blob straight into its
  // final offset instead of holding every blob in memory.
  const std::vector<uint8_t> meta_blob = meta.ToBlob();
  const Metric metric = meta.index().options().metric;
  std::vector<uint64_t> blob_sizes(clusters.size());
  DHNSW_RETURN_IF_ERROR(for_each_cluster("analyze", [&](size_t c) {
    blob_sizes[c] = EncodedClusterSize(clusters[c]);
  }));

  const uint32_t dim = meta.dim();
  const uint32_t record_size = static_cast<uint32_t>(OverflowRecordSize(dim));
  DHNSW_ASSIGN_OR_RETURN(
      plan_, PlanLayout(dim, metric, record_size, meta_blob.size(), blob_sizes, config,
                        num_shards));
  plan_.header.layout_version = layout_version;

  // Register one region per shard; slot 0 lives on this node, further slots
  // each get a fresh memory instance on the fabric.
  std::vector<rdma::RKey> shard_rkeys;
  std::vector<rdma::NodeId> shard_nodes;
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    const rdma::NodeId owner =
        s == 0 ? node_ : fabric_->AddNode("memory-node-shard-" + std::to_string(s));
    DHNSW_ASSIGN_OR_RETURN(const rdma::RKey rkey,
                           fabric_->RegisterMemory(owner, plan_.shard_sizes[s]));
    shard_rkeys.push_back(rkey);
    shard_nodes.push_back(owner);
  }

  // Resolve every shard's host span up-front (sequentially): the encode
  // workers below then only touch disjoint [blob_offset, blob_offset+size)
  // windows of these spans.
  std::vector<std::span<uint8_t>> shard_mem(plan_.num_shards());
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    rdma::MemoryRegion* shard = fabric_->FindRegion(shard_rkeys[s]);
    if (shard == nullptr) return Status::Internal("freshly registered region not found");
    shard_mem[s] = shard->host_span();
  }
  std::span<uint8_t> mem = shard_mem[0];

  // Region header + metadata table (primary only).
  EncodeRegionHeader(plan_.header, mem.subspan(0, RegionHeader::kEncodedSize));
  for (uint32_t c = 0; c < plan_.entries.size(); ++c) {
    EncodeClusterMeta(plan_.entries[c],
                      mem.subspan(plan_.TableEntryOffset(c), ClusterMeta::kEncodedSize));
  }

  // meta-HNSW blob (primary only).
  std::memcpy(mem.data() + plan_.header.meta_blob_offset, meta_blob.data(), meta_blob.size());

  // Encode + store, streamed: each cluster's blob is built and copied to its
  // planned offset, then freed. Peak memory is one blob per worker.
  DHNSW_RETURN_IF_ERROR(for_each_cluster("encode", [&](size_t c) {
    const std::vector<uint8_t> blob = EncodeCluster(clusters[c]);
    if (blob.size() != blob_sizes[c]) {
      throw std::logic_error("cluster " + std::to_string(c) +
                             " encoded size disagrees with EncodedClusterSize");
    }
    std::memcpy(shard_mem[plan_.entries[c].node_slot].data() + plan_.entries[c].blob_offset,
                blob.data(), blob.size());
  }));

  handle_ = MemoryNodeHandle{node_, shard_rkeys[0], plan_.total_size,
                             std::move(shard_rkeys), std::move(shard_nodes)};

  // Provisioning is control-plane: per-call registry lookups are fine.
  telemetry::MetricRegistry& registry = telemetry::DefaultRegistry();
  registry.GetCounter("dhnsw_memory_provisions_total")->Add(1);
  registry.GetCounter("dhnsw_memory_clusters_provisioned_total")->Add(clusters.size());
  registry.GetGauge("dhnsw_memory_provisioned_bytes")->Add(static_cast<int64_t>(plan_.total_size));
  registry.GetHistogram("dhnsw_memory_provision_us")
      ->Record(static_cast<uint64_t>(provision_timer.elapsed_us()));
  return Status::Ok();
}

Result<ClusterMeta> MemoryNode::InspectClusterMeta(uint32_t cluster) const {
  if (!provisioned()) return Status::Unavailable("memory node not provisioned");
  if (cluster >= plan_.entries.size()) return Status::InvalidArgument("bad cluster id");
  const rdma::MemoryRegion* region = fabric_->FindRegion(handle_.rkey);
  if (region == nullptr) return Status::Internal("region vanished");
  return DecodeClusterMeta(
      region->host_span().subspan(plan_.TableEntryOffset(cluster), ClusterMeta::kEncodedSize));
}

}  // namespace dhnsw
