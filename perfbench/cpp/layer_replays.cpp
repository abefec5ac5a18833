// Traced-run replays: the workload's own queries and the region's own
// cluster blobs, pushed through each layer's public function and timed from
// here. These are the per-layer numbers that no library counter carries.
#include <optional>

#include "common/crc32.h"
#include "common/sim_clock.h"
#include "common/timer.h"
#include "harness.h"
#include "rdma/queue_pair.h"
#include "serialize/cluster_blob.h"

namespace perfbench {

void ReplayLayers(const Params& p, dhnsw::DhnswEngine& engine, const dhnsw::VectorSet& queries,
                  Report* report) {
  MetricList& l = report->layers;
  const size_t nq = queries.size();

  // core.meta_hnsw: routing each query to its b partitions.
  const dhnsw::MetaHnsw& meta = engine.compute(0).meta();
  std::vector<std::vector<uint32_t>> routes(nq);
  const dhnsw::WallTimer route_timer;
  for (size_t i = 0; i < nq; ++i) routes[i] = meta.RouteMany(queries[i], kB);
  l.Add("meta_hnsw.route_us_per_query", route_timer.elapsed_us() / static_cast<double>(nq),
        "us");

  // rdma: one blocking READ ring per cluster blob, on the workload's transport.
  const dhnsw::MemoryNode* memory = engine.memory_node();
  if (memory == nullptr) {
    report->Violation("replay: engine has no memory node");
    return;
  }
  const std::vector<dhnsw::ClusterMeta>& entries = memory->plan().entries;
  dhnsw::SimClock clock;
  dhnsw::rdma::QueuePair qp(&engine.fabric(), &clock);
  std::vector<std::vector<uint8_t>> blobs(entries.size());
  uint64_t read_ns = 0, bytes = 0;
  for (size_t c = 0; c < entries.size(); ++c) {
    blobs[c].resize(entries[c].blob_size);
    const dhnsw::WallTimer timer;
    const dhnsw::Status st =
        qp.Read(engine.memory_handle().rkey_for_slot(entries[c].node_slot),
                entries[c].blob_offset, blobs[c]);
    read_ns += timer.elapsed_ns();
    if (!st.ok()) {
      report->Violation("replay READ failed: " + st.ToString());
      return;
    }
    bytes += blobs[c].size();
  }
  const double blobs_n = static_cast<double>(entries.size());
  const double mb = static_cast<double>(bytes) / 1e6;
  l.Add("rdma.read_ring_us", static_cast<double>(read_ns) / 1e3 / blobs_n, "us");

  // common: CRC32C over the same bytes the decoder verifies.
  const dhnsw::WallTimer crc_timer;
  for (const auto& blob : blobs) (void)dhnsw::Crc32c(blob);
  const double crc_s = static_cast<double>(crc_timer.elapsed_ns()) / 1e9;
  l.Add("common.crc32c_mb_s", crc_s > 0.0 ? mb / crc_s : 0.0, "MB/s");

  // serialize: DecodeCluster (CRC check + copy into a searchable graph).
  const dhnsw::HnswOptions options = MakeConfig(p).sub_hnsw;
  std::vector<std::optional<dhnsw::Cluster>> clusters(entries.size());
  const dhnsw::WallTimer decode_timer;
  for (size_t c = 0; c < entries.size(); ++c) {
    auto decoded = dhnsw::DecodeCluster(blobs[c], options);
    if (!decoded.ok()) {
      report->Violation("replay decode failed: " + decoded.status().ToString());
      return;
    }
    clusters[c].emplace(std::move(decoded).value());
  }
  const double decode_s = static_cast<double>(decode_timer.elapsed_ns()) / 1e9;
  l.Add("serialize.decode_mb_s", decode_s > 0.0 ? mb / decode_s : 0.0, "MB/s");

  // index: sub-HNSW search per routed (query, cluster) pair.
  uint64_t pairs = 0, found = 0;
  const dhnsw::WallTimer sub_timer;
  for (size_t i = 0; i < nq; ++i) {
    for (const uint32_t c : routes[i]) {
      found += clusters[c]->index.Search(queries[i], kK, kEf).size();
      ++pairs;
    }
  }
  const double sub_us = sub_timer.elapsed_us();
  if (found == 0) report->Violation("replay sub-searches returned nothing");
  l.Add("index.sub_search_us", pairs > 0 ? sub_us / static_cast<double>(pairs) : 0.0, "us");

  l.Add("base.replay_queries", static_cast<double>(nq), "count");
  l.Add("base.replay_pairs", static_cast<double>(pairs), "count");
  l.Add("base.replay_blobs", blobs_n, "count");
  l.Add("base.replay_mb", mb, "MB");
}

void ReplayPerOpBreakdown(const Params& p, dhnsw::DhnswEngine& engine,
                          const dhnsw::VectorSet& queries, Report* report) {
  dhnsw::ComputeNode node(&engine.fabric(), engine.memory_handle(), MakeConfig(p).compute,
                          "replay");
  node.AttachReplicaManager(engine.replication());
  const dhnsw::Status st = node.Connect();
  if (!st.ok()) {
    report->Violation("replay node connect failed: " + st.ToString());
    return;
  }
  dhnsw::BatchBreakdown total;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto run = node.SearchBatch(queries, i, 1, kK, kEf);
    if (!run.ok()) {
      report->Violation("replay search failed: " + run.status().ToString());
      return;
    }
    total += run.value().breakdown;
  }
  const double n = static_cast<double>(queries.size());
  MetricList& l = report->layers;
  l.Add("compute_node.meta_ms", total.meta_us / 1e3 / n, "ms");
  l.Add("compute_node.decode_ms", total.deserialize_us / 1e3 / n, "ms");
  l.Add("compute_node.sub_ms", total.sub_us / 1e3 / n, "ms");
  l.Add("base.breakdown_batches", n, "count");
}

}  // namespace perfbench
