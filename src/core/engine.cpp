#include "core/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/snapshot.h"

namespace dhnsw {

DhnswConfig DhnswConfig::Defaults(Metric metric) {
  DhnswConfig config;
  config.meta.metric = metric;
  config.sub_hnsw.metric = metric;
  config.compute.sub_hnsw_template.metric = metric;
  return config;
}

Status DhnswEngine::ConnectComputePool(const DhnswConfig& config) {
  ComputeOptions copts = config.compute;
  copts.sub_hnsw_template.metric = config.sub_hnsw.metric;
  for (size_t i = 0; i < std::max<size_t>(config.num_compute_nodes, 1); ++i) {
    auto node = std::make_unique<ComputeNode>(fabric_.get(), memory_handle_, copts,
                                              "compute-" + std::to_string(i));
    node->AttachReplicaManager(replication_.get());
    DHNSW_RETURN_IF_ERROR(node->Connect());
    computes_.push_back(std::move(node));
  }
  return Status::Ok();
}

Result<DhnswEngine> DhnswEngine::Build(const VectorSet& base, DhnswConfig config) {
  if (base.empty()) return Status::InvalidArgument("DhnswEngine: empty base set");

  // Operational escape hatch: force reproducible builds without a config
  // change (e.g. to re-provision a byte-identical region for an audit).
  if (const char* env = std::getenv("DHNSW_DETERMINISTIC_BUILD");
      env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    config.deterministic_build = true;
  }

  DhnswEngine engine;
  engine.config_ = config;
  engine.dim_ = base.dim();
  engine.next_global_id_ = static_cast<uint32_t>(base.size());

  // 1. Representative sampling + meta graph (§3.1). The k-means scans use
  // the build pool too; they are deterministic for every thread count, so no
  // deterministic_build gate is needed here.
  MetaHnswOptions mopts = config.meta;
  mopts.build_threads = static_cast<uint32_t>(
      std::max<size_t>(mopts.build_threads, config.build_threads));
  DHNSW_ASSIGN_OR_RETURN(MetaHnsw meta, MetaHnsw::Build(base, mopts));
  engine.num_partitions_ = meta.num_partitions();

  // 2. Classify all vectors and build per-partition sub-HNSWs.
  PartitionerOptions popts;
  popts.sub_hnsw = config.sub_hnsw;
  popts.num_threads = config.build_threads;
  popts.deterministic = config.deterministic_build;
  DHNSW_ASSIGN_OR_RETURN(Partitioning parts, PartitionDataset(base, meta, popts));
  engine.partition_sizes_.reserve(parts.clusters.size());
  for (const Cluster& c : parts.clusters) {
    engine.partition_sizes_.push_back(static_cast<uint32_t>(c.index.size()));
  }

  // 3. Fabric + memory instance + RDMA-friendly layout (§3.2).
  engine.fabric_ = std::make_unique<rdma::Fabric>(config.nic, config.transport);
  engine.memory_ = std::make_unique<MemoryNode>(engine.fabric_.get());
  DHNSW_RETURN_IF_ERROR(engine.memory_->Provision(
      meta, parts.clusters, config.layout, /*layout_version=*/0,
      static_cast<uint32_t>(std::max<size_t>(config.num_memory_nodes, 1)),
      config.build_threads));
  engine.memory_handle_ = engine.memory_->handle();
  engine.meta_blob_bytes_ = engine.memory_->plan().header.meta_blob_size;

  // 3b. Replication: clone every shard region onto factor-1 extra memory
  //     nodes and fence the whole pool at epoch 1.
  if (config.replication.enabled()) {
    engine.replication_ =
        std::make_unique<ReplicaManager>(engine.fabric_.get(), config.replication);
    DHNSW_RETURN_IF_ERROR(engine.replication_->ProvisionReplicas(engine.memory_handle_));
  }

  // 4. Compute pool: each instance connects and caches the meta-HNSW.
  DHNSW_RETURN_IF_ERROR(engine.ConnectComputePool(config));
  telemetry::DefaultRegistry().GetCounter("dhnsw_engine_builds_total")->Add(1);
  return engine;
}

Result<DhnswEngine> DhnswEngine::BuildFromSnapshot(const std::string& path,
                                                   DhnswConfig config,
                                                   uint32_t next_global_id) {
  DhnswEngine engine;
  engine.config_ = config;
  engine.fabric_ = std::make_unique<rdma::Fabric>(config.nic, config.transport);
  DHNSW_ASSIGN_OR_RETURN(engine.memory_handle_,
                         LoadRegionSnapshot(engine.fabric_.get(), path));
  engine.next_global_id_ = next_global_id;
  if (config.replication.enabled()) {
    engine.replication_ =
        std::make_unique<ReplicaManager>(engine.fabric_.get(), config.replication);
    DHNSW_RETURN_IF_ERROR(engine.replication_->ProvisionReplicas(engine.memory_handle_));
  }
  DHNSW_RETURN_IF_ERROR(engine.ConnectComputePool(config));

  // Restore validation: reject a snapshot that disagrees with what the
  // caller says it should contain — a wrong-dataset snapshot would otherwise
  // connect fine and quietly mis-serve every query.
  const ComputeNode& probe = *engine.computes_.front();
  if (config.expected_dim != 0 && probe.dim() != config.expected_dim) {
    return Status::InvalidArgument(
        "snapshot dim " + std::to_string(probe.dim()) + " disagrees with configured dim " +
        std::to_string(config.expected_dim) + " in " + path);
  }
  if (config.expected_partitions != 0 && probe.num_clusters() != config.expected_partitions) {
    return Status::InvalidArgument("snapshot has " + std::to_string(probe.num_clusters()) +
                                   " partitions, config expects " +
                                   std::to_string(config.expected_partitions) + " in " + path);
  }
  // Internal cross-check: region header vs the decoded meta-HNSW blob.
  if (probe.meta().dim() != probe.dim() ||
      probe.meta().num_partitions() != probe.num_clusters()) {
    return Status::Corruption("snapshot region header disagrees with its meta-HNSW blob in " +
                              path);
  }
  engine.dim_ = engine.computes_.front()->meta().dim();
  engine.num_partitions_ = engine.computes_.front()->num_clusters();
  telemetry::DefaultRegistry().GetCounter("dhnsw_engine_snapshot_restores_total")->Add(1);
  return engine;
}

Result<uint32_t> DhnswEngine::Insert(std::span<const float> v, size_t via_instance) {
  if (via_instance >= computes_.size()) {
    return Status::InvalidArgument("Insert: bad compute instance");
  }
  const uint32_t id = next_global_id_;
  DHNSW_ASSIGN_OR_RETURN(InsertReceipt receipt, computes_[via_instance]->Insert(v, id));
  (void)receipt;
  ++next_global_id_;
  return id;
}

Result<uint32_t> DhnswEngine::InsertBatch(const VectorSet& vectors,
                                          std::vector<size_t>* rejected,
                                          size_t via_instance) {
  if (via_instance >= computes_.size()) {
    return Status::InvalidArgument("InsertBatch: bad compute instance");
  }
  const uint32_t first_id = next_global_id_;
  std::vector<uint32_t> ids(vectors.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = first_id + static_cast<uint32_t>(i);

  // The ids are consumed whatever the outcome: rejected rows are simply
  // never stored, and a call that fails may already have stored earlier
  // partition groups, whose ids must never be handed out again. Keeping the
  // id space monotone also avoids renumbering surviving rows.
  next_global_id_ = first_id + static_cast<uint32_t>(vectors.size());
  DHNSW_ASSIGN_OR_RETURN(ComputeNode::BatchInsertResult result,
                         computes_[via_instance]->InsertBatch(vectors, ids));
  if (rejected != nullptr) *rejected = std::move(result.rejected);
  return first_id;
}

Status DhnswEngine::Remove(std::span<const float> v, uint32_t global_id,
                           size_t via_instance) {
  if (via_instance >= computes_.size()) {
    return Status::InvalidArgument("Remove: bad compute instance");
  }
  auto receipt = computes_[via_instance]->Remove(v, global_id);
  return receipt.status();
}

Result<CompactionStats> DhnswEngine::Compact() {
  Compactor compactor(fabric_.get(), config_.sub_hnsw);
  std::unique_ptr<MemoryNode> fresh;
  DHNSW_ASSIGN_OR_RETURN(CompactionStats stats,
                         compactor.Run(memory_handle_, &fresh, config_.layout));
  // Switch over: adopt the new region, then reconnect every instance (the
  // connection manager pushing a new lease). The old region is abandoned.
  memory_ = std::move(fresh);
  memory_handle_ = memory_->handle();
  // Replication restarts from scratch on the fresh region: a new manager
  // re-clones the compacted layout and fences it at epoch 1 (the old
  // replicas described a region that no longer exists).
  if (replication_ != nullptr) {
    replication_ = std::make_unique<ReplicaManager>(fabric_.get(), config_.replication);
    DHNSW_RETURN_IF_ERROR(replication_->ProvisionReplicas(memory_handle_));
  }
  for (auto& node : computes_) {
    node->AttachReplicaManager(replication_.get());
    DHNSW_RETURN_IF_ERROR(node->Reconnect(memory_handle_));
  }
  return stats;
}

Status DhnswEngine::SaveSnapshot(const std::string& path) const {
  Status st = SaveRegionSnapshot(*fabric_, memory_handle_, path);
  if (st.ok()) {
    telemetry::DefaultRegistry().GetCounter("dhnsw_engine_snapshot_saves_total")->Add(1);
  }
  return st;
}

void DhnswEngine::EnableTracing(size_t capacity_per_instance) {
  for (auto& node : computes_) node->EnableTracing(capacity_per_instance);
  if (replication_ != nullptr) replication_->EnableTracing(capacity_per_instance);
}

void DhnswEngine::ClearTraces() {
  for (auto& node : computes_) node->ClearTrace();
  if (replication_ != nullptr) replication_->ClearTrace();
}

void DhnswEngine::PublishTopologyMetrics() const {
  const Metrics m = CollectMetrics();
  telemetry::MetricRegistry& r = telemetry::DefaultRegistry();
  r.GetGauge("dhnsw_engine_partitions")->Set(m.partitions);
  r.GetGauge("dhnsw_engine_compute_nodes")->Set(m.compute_nodes);
  r.GetGauge("dhnsw_engine_memory_shards")->Set(m.memory_shards);
  r.GetGauge("dhnsw_engine_region_bytes")->Set(static_cast<int64_t>(m.region_bytes_total));
  r.GetGauge("dhnsw_engine_cache_entries")->Set(static_cast<int64_t>(m.cache_entries));
  r.GetGauge("dhnsw_engine_cache_hits")->Set(static_cast<int64_t>(m.cache_hits));
  r.GetGauge("dhnsw_engine_cache_misses")->Set(static_cast<int64_t>(m.cache_misses));
}

telemetry::MetricsSnapshot DhnswEngine::MetricsSnapshot() const {
  PublishTopologyMetrics();
  return telemetry::DefaultRegistry().Snapshot();
}

std::string DhnswEngine::MetricsText() const {
  PublishTopologyMetrics();
  return telemetry::DefaultRegistry().PrometheusText();
}

DhnswEngine::Metrics DhnswEngine::CollectMetrics() const {
  Metrics m;
  m.partitions = num_partitions_;
  m.compute_nodes = static_cast<uint32_t>(computes_.size());
  m.memory_shards = static_cast<uint32_t>(memory_handle_.num_shards());
  for (uint32_t s = 0; s < memory_handle_.num_shards(); ++s) {
    const rdma::MemoryRegion* region =
        fabric_->FindRegion(memory_handle_.rkey_for_slot(s));
    if (region != nullptr) m.region_bytes_total += region->size();
  }
  for (const auto& node : computes_) {
    const rdma::QpStats& qp = node->qp_stats();
    m.qp_total.round_trips += qp.round_trips;
    m.qp_total.work_requests += qp.work_requests;
    m.qp_total.reads += qp.reads;
    m.qp_total.writes += qp.writes;
    m.qp_total.atomics += qp.atomics;
    m.qp_total.bytes_read += qp.bytes_read;
    m.qp_total.bytes_written += qp.bytes_written;
    m.qp_total.sim_network_ns += qp.sim_network_ns;
    m.cache_entries += node->cache_size();
    m.cache_hits += node->cache_hits();
    m.cache_misses += node->cache_misses();
  }
  return m;
}

std::string DhnswEngine::DebugString() const {
  const Metrics m = CollectMetrics();
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "d-HNSW engine: %u partitions, %u compute node(s), %u memory shard(s)\n"
      "  remote memory : %.2f MB registered, meta-HNSW blob %.1f KB\n"
      "  fabric totals : %llu round trips, %llu WRs (%llu reads / %llu writes / "
      "%llu atomics)\n"
      "  bytes         : %.2f MB read, %.2f MB written, %.3f ms simulated "
      "network time\n"
      "  cluster cache : %llu resident, %llu hits, %llu misses",
      m.partitions, m.compute_nodes, m.memory_shards,
      static_cast<double>(m.region_bytes_total) / (1 << 20),
      static_cast<double>(meta_blob_bytes_) / 1024.0,
      static_cast<unsigned long long>(m.qp_total.round_trips),
      static_cast<unsigned long long>(m.qp_total.work_requests),
      static_cast<unsigned long long>(m.qp_total.reads),
      static_cast<unsigned long long>(m.qp_total.writes),
      static_cast<unsigned long long>(m.qp_total.atomics),
      static_cast<double>(m.qp_total.bytes_read) / (1 << 20),
      static_cast<double>(m.qp_total.bytes_written) / (1 << 20),
      static_cast<double>(m.qp_total.sim_network_ns) / 1e6,
      static_cast<unsigned long long>(m.cache_entries),
      static_cast<unsigned long long>(m.cache_hits),
      static_cast<unsigned long long>(m.cache_misses));
  return buf;
}

}  // namespace dhnsw
