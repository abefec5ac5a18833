// The memory instance: registers one contiguous region on the fabric and
// populates it with the global metadata block, the serialized meta-HNSW, and
// all sub-HNSW cluster blobs per the RDMA-friendly layout (paper §3.2).
//
// Matching the paper's assumption that memory instances have "extremely weak
// computational power, handling lightweight memory registration tasks", this
// class does no search work: after Provision() it is entirely passive, and
// compute instances interact with the region through one-sided verbs only.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/memory_layout.h"
#include "core/meta_hnsw.h"
#include "rdma/fabric.h"
#include "serialize/cluster_blob.h"

namespace dhnsw {

/// The out-of-band bootstrap info a compute instance needs to connect —
/// exactly what a real connection manager would exchange over TCP before
/// switching to one-sided verbs. `node`/`rkey` name the PRIMARY memory
/// instance (header, metadata table, meta-HNSW blob); `shard_rkeys[slot]`
/// names the region holding the cluster groups of that slot
/// (shard_rkeys[0] == rkey for single-instance deployments and pools alike).
struct MemoryNodeHandle {
  rdma::NodeId node = 0;
  rdma::RKey rkey = 0;
  uint64_t region_size = 0;
  std::vector<rdma::RKey> shard_rkeys = {};
  std::vector<rdma::NodeId> shard_nodes = {};

  rdma::RKey rkey_for_slot(uint32_t slot) const {
    return shard_rkeys.empty() ? rkey : shard_rkeys[slot];
  }
  size_t num_shards() const noexcept {
    return shard_rkeys.empty() ? 1 : shard_rkeys.size();
  }
};

class MemoryNode {
 public:
  /// Creates the node on the fabric (no memory yet).
  explicit MemoryNode(rdma::Fabric* fabric, std::string name = "memory-node");

  /// Lays out, registers, and populates the region(s) from the built
  /// clusters and meta index. Population uses host (memory-node CPU) stores
  /// — the paper's setup phase; steady-state access is all one-sided.
  /// `layout_version` stamps the region header (compaction bumps it).
  /// With `num_shards` > 1 this provisions a memory POOL: cluster groups are
  /// spread round-robin over that many memory instances, while the header,
  /// table, and meta-HNSW stay on the primary (paper Fig. 2's memory pool).
  /// `encode_threads` > 1 parallelizes the per-cluster work (size analysis,
  /// serialization) over that many workers; the layout is planned
  /// from exact predicted sizes and each blob is encoded straight into its
  /// final region offset, so peak memory is ~encode_threads blobs instead of
  /// all of them, and the provisioned bytes are identical for every thread
  /// count.
  Status Provision(const MetaHnsw& meta, const std::vector<Cluster>& clusters,
                   const LayoutConfig& config, uint64_t layout_version = 0,
                   uint32_t num_shards = 1, size_t encode_threads = 1);

  const MemoryNodeHandle& handle() const noexcept { return handle_; }
  const LayoutPlan& plan() const noexcept { return plan_; }
  bool provisioned() const noexcept { return handle_.rkey != 0; }

  /// Host-side view of a cluster's current metadata entry (tests/inspection;
  /// a real memory node's CPU could serve this, but compute nodes read it
  /// via RDMA instead).
  Result<ClusterMeta> InspectClusterMeta(uint32_t cluster) const;

 private:
  rdma::Fabric* fabric_;
  rdma::NodeId node_;
  MemoryNodeHandle handle_;
  LayoutPlan plan_;
};

}  // namespace dhnsw
