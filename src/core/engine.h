// DhnswEngine: the top-level façade a downstream user interacts with.
//
// Owns the simulated fabric, the memory instance, and a pool of compute
// instances; wires up the build pipeline
//     sample -> meta-HNSW -> partition -> sub-HNSWs -> layout -> provision
// and exposes batched search, dynamic insert/remove, overflow compaction,
// and region snapshots. Examples and benches go through this class; tests
// may also reach into the individual modules.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/compactor.h"
#include "core/compute_node.h"
#include "core/memory_node.h"
#include "core/meta_hnsw.h"
#include "core/partitioner.h"
#include "core/replication.h"
#include "dataset/dataset.h"
#include "rdma/fabric.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dhnsw {

struct DhnswConfig {
  MetaHnswOptions meta;          ///< representative sampling + meta graph
  HnswOptions sub_hnsw;          ///< per-partition graph build parameters
  LayoutConfig layout;           ///< remote-memory layout (overflow sizing)
  rdma::NicModelConfig nic;      ///< fabric cost model
  /// Fabric backend: the deterministic simulator by default, or the real TCP
  /// / verbs transport (transport.h). Leaving the kind unset also honours the
  /// DHNSW_TRANSPORT environment variable; tests that assert simulator-only
  /// semantics pin `transport.kind = rdma::TransportKind::kSim` explicitly.
  rdma::TransportOptions transport;
  ComputeOptions compute;        ///< per-instance query options
  size_t num_compute_nodes = 1;  ///< instances in the compute pool
  size_t num_memory_nodes = 1;   ///< instances in the memory pool (shards)
  /// Worker threads for the whole build pipeline: k-means, classification,
  /// sub-HNSW construction, and serialization. 1 = fully
  /// sequential (the seed behaviour).
  size_t build_threads = 1;
  /// Reproducible builds: keep parallelism to the stages that are
  /// deterministic by construction and force sequential insertion inside
  /// each graph, so the provisioned region is byte-identical for every
  /// `build_threads` value (see DESIGN.md §16). The DHNSW_DETERMINISTIC_BUILD=1
  /// environment variable forces this on at Build time.
  bool deterministic_build = false;
  /// Replicated memory pool: factor > 1 provisions every shard region onto
  /// that many memory nodes and turns on failure detection, epoch-fenced
  /// failover, and online re-replication (core/replication.h). The default
  /// factor 1 keeps the single-copy seed behaviour byte-identical.
  ReplicationOptions replication;
  /// Snapshot restore validation (BuildFromSnapshot only): when non-zero,
  /// the restored region must carry exactly this vector dimensionality /
  /// partition count, else the restore fails with kInvalidArgument instead
  /// of serving an index the caller's queries cannot match. 0 = unchecked.
  uint32_t expected_dim = 0;
  uint32_t expected_partitions = 0;

  /// Convenience: paper-default configuration for a given metric.
  static DhnswConfig Defaults(Metric metric = Metric::kL2);
};

class DhnswEngine {
 public:
  /// Builds the full system over `base`. Global ids are the base-row indices;
  /// inserts continue from base.size().
  static Result<DhnswEngine> Build(const VectorSet& base, DhnswConfig config);

  /// Restores a system from a region snapshot (see snapshot.h) — skips
  /// sampling/partitioning/graph construction entirely. `next_global_id`
  /// must be at least one past any id stored in the snapshot.
  static Result<DhnswEngine> BuildFromSnapshot(const std::string& path, DhnswConfig config,
                                               uint32_t next_global_id);

  DhnswEngine(DhnswEngine&&) = default;
  DhnswEngine& operator=(DhnswEngine&&) = default;

  size_t num_compute_nodes() const noexcept { return computes_.size(); }
  ComputeNode& compute(size_t i = 0) { return *computes_[i]; }
  /// Raw pointers to every compute instance, pool order — the form the
  /// ComputePool constructor takes; a pool over them serves sharded batches
  /// (ComputePool::SearchSharded). Never null entries.
  std::vector<ComputeNode*> compute_nodes() {
    std::vector<ComputeNode*> nodes;
    nodes.reserve(computes_.size());
    for (auto& c : computes_) nodes.push_back(c.get());
    return nodes;
  }
  const MemoryNodeHandle& memory_handle() const noexcept { return memory_handle_; }
  /// Present when the engine built (or compacted) the region itself; null
  /// for snapshot-restored engines.
  const MemoryNode* memory_node() const noexcept { return memory_.get(); }
  rdma::Fabric& fabric() noexcept { return *fabric_; }
  /// The replica directory / failure detector, or null when replication is
  /// disabled (factor 1).
  ReplicaManager* replication() noexcept { return replication_.get(); }
  const ReplicaManager* replication() const noexcept { return replication_.get(); }
  uint32_t num_partitions() const noexcept { return num_partitions_; }
  uint32_t dim() const noexcept { return dim_; }
  const std::vector<uint32_t>& partition_sizes() const noexcept { return partition_sizes_; }
  uint64_t meta_blob_bytes() const noexcept { return meta_blob_bytes_; }
  uint32_t next_global_id() const noexcept { return next_global_id_; }

  /// Batched search on compute instance 0 (see ComputeNode::SearchBatch for
  /// per-instance control).
  Result<BatchResult> SearchAll(const VectorSet& queries, size_t k, uint32_t ef_search) {
    return compute(0).SearchAll(queries, k, ef_search);
  }

  /// Inserts a new vector; assigns and returns its global id.
  /// Routed + written by compute instance `via_instance`.
  Result<uint32_t> Insert(std::span<const float> v, size_t via_instance = 0);

  /// Batched insertion: assigns consecutive global ids to `vectors` and
  /// writes them with per-partition coalesced FAAs + doorbell-batched
  /// WRITEs (see ComputeNode::InsertBatch). Returns the first assigned id;
  /// `rejected` (if non-null) receives the indices that hit Capacity. The
  /// batch's ids are consumed even when the call fails, since partition
  /// groups written before the failure stay stored.
  Result<uint32_t> InsertBatch(const VectorSet& vectors,
                               std::vector<size_t>* rejected = nullptr,
                               size_t via_instance = 0);

  /// Tombstone-deletes `global_id`; `v` must be its stored vector (routing
  /// key). Space is physically reclaimed by Compact().
  Status Remove(std::span<const float> v, uint32_t global_id, size_t via_instance = 0);

  /// Folds overflow (inserts + tombstones) into the base blobs, provisions a
  /// fresh region with empty overflow, and reconnects every compute node.
  Result<CompactionStats> Compact();

  /// Persists / restores the current region (see snapshot.h).
  Status SaveSnapshot(const std::string& path) const;

  /// Point-in-time operational counters aggregated across the compute pool.
  /// Kept as a plain struct for existing callers; the same numbers are also
  /// published into the telemetry registry by MetricsSnapshot()/MetricsText()
  /// as dhnsw_engine_* gauges.
  struct Metrics {
    uint32_t partitions = 0;
    uint32_t compute_nodes = 0;
    uint32_t memory_shards = 0;
    uint64_t region_bytes_total = 0;   ///< summed over all shard regions
    rdma::QpStats qp_total;            ///< summed over compute instances
    uint64_t cache_entries = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
  };
  Metrics CollectMetrics() const;

  /// Human-readable one-screen summary (examples, debugging, ops).
  std::string DebugString() const;

  /// --- telemetry (see DESIGN.md "Telemetry subsystem") ---
  /// Enables per-query tracing: every compute instance, and the replica
  /// manager when replication is on, gets a bounded buffer of
  /// `capacity_per_instance` events (preallocated now, so steady-state spans
  /// never allocate). 0 disables.
  void EnableTracing(size_t capacity_per_instance);
  /// Forgets recorded events on every buffer; keeps reservations.
  void ClearTraces();
  /// Per-instance trace (spans recorded by compute instance `instance`).
  const telemetry::TraceBuffer& trace(size_t instance = 0) const {
    return computes_[instance]->trace();
  }

  /// Publishes the engine topology (dhnsw_engine_* gauges) into the process
  /// registry, then returns a point-in-time snapshot of every instrument.
  /// With several engines in one process the topology gauges reflect the
  /// engine snapshotted most recently.
  telemetry::MetricsSnapshot MetricsSnapshot() const;
  /// Same, as Prometheus text exposition (the `dhnsw_cli stats` output).
  std::string MetricsText() const;

 private:
  DhnswEngine() = default;

  Status ConnectComputePool(const DhnswConfig& config);
  /// Mirrors CollectMetrics() into dhnsw_engine_* registry gauges.
  void PublishTopologyMetrics() const;

  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<MemoryNode> memory_;
  /// Owned here, raw-pointer-attached to every compute node; destroyed after
  /// them is not required (nodes never outlive the engine).
  std::unique_ptr<ReplicaManager> replication_;
  MemoryNodeHandle memory_handle_;
  std::vector<std::unique_ptr<ComputeNode>> computes_;
  DhnswConfig config_;
  uint32_t dim_ = 0;
  uint32_t num_partitions_ = 0;
  uint32_t next_global_id_ = 0;
  uint64_t meta_blob_bytes_ = 0;
  std::vector<uint32_t> partition_sizes_;
};

}  // namespace dhnsw
