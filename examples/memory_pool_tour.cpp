// Memory-pool tour: a deployment with THREE memory instances and FOUR
// compute instances (paper Fig. 2 shows both pools as multi-instance).
// Shows sharded provisioning, a batch sharded over the compute pool's
// lanes, a shard outage surfacing cleanly, and the engine metrics view.
//
//   $ ./build/examples/memory_pool_tour
#include <cstdio>

#include "core/compute_pool.h"
#include "core/engine.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"

int main() {
  using namespace dhnsw;

  Dataset ds = MakeSiftLike(12000, 400);
  ComputeGroundTruth(&ds, 10);

  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 48;
  config.compute.clusters_per_query = 4;
  config.compute.cache_capacity = 6;
  config.num_memory_nodes = 3;   // memory pool
  config.num_compute_nodes = 4;  // compute pool
  auto engine = DhnswEngine::Build(ds.base, config);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  const MemoryNodeHandle& handle = engine.value().memory_handle();
  std::printf("memory pool: %zu instances; cluster groups shard round-robin\n",
              handle.num_shards());
  for (uint32_t s = 0; s < handle.num_shards(); ++s) {
    const auto* region = engine.value().fabric().FindRegion(handle.rkey_for_slot(s));
    std::printf("  shard %u (%s): %.2f MB\n", s,
                engine.value().fabric().NodeName(handle.shard_nodes[s]).c_str(),
                static_cast<double>(region->size()) / (1 << 20));
  }

  // One batch across the compute pool: each instance's lane runs one
  // contiguous shard. The pool's workers stop at the end of this block, so
  // the searches below run on the instances directly.
  {
    ComputePool pool(engine.value().compute_nodes(), ComputePoolOptions{});
    auto sharded = pool.SearchSharded(ds.queries, 10, 48);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharded search failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    std::printf("\nsharded batch over %zu compute instances:\n", pool.size());
    std::printf("  recall@10     : %.4f\n",
                MeanRecallAtK(ds, sharded.value().results, 10));
    for (size_t i = 0; i < pool.size(); ++i) {
      const BatchBreakdown& b = sharded.value().per_node[i];
      std::printf("  instance %zu    : %zu queries, %llu round trips, %llu clusters loaded\n",
                  i, b.num_queries, static_cast<unsigned long long>(b.round_trips),
                  static_cast<unsigned long long>(b.clusters_loaded));
    }
  }

  // Shard outage: queries that need clusters on the dead shard fail loudly
  // (no silent partial answers), and recover when it returns.
  engine.value().fabric().SetNodeReachable(handle.shard_nodes[2], false);
  for (size_t i = 0; i < engine.value().num_compute_nodes(); ++i) {
    engine.value().compute(i).InvalidateCache();
  }
  auto during_outage = engine.value().SearchAll(ds.queries, 10, 48);
  std::printf("\nshard 2 down: search %s (%s)\n",
              during_outage.ok() ? "unexpectedly succeeded" : "failed loudly",
              during_outage.status().ToString().c_str());
  engine.value().fabric().SetNodeReachable(handle.shard_nodes[2], true);
  auto after_recovery = engine.value().SearchAll(ds.queries, 10, 48);
  std::printf("shard 2 back: search %s\n", after_recovery.ok() ? "recovered" : "STILL FAILING");

  std::printf("\n%s\n", engine.value().DebugString().c_str());
  return after_recovery.ok() && !during_outage.ok() ? 0 : 1;
}
