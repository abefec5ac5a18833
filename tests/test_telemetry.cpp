// Telemetry subsystem tests: instrument semantics, registry idempotence,
// trace buffer bounds, JSONL export stability, and the end-to-end contracts
// the instrumented engine must keep — per-stage spans accounting for the
// batch latency and cluster-level cache hit/miss bookkeeping closing against
// the scheduler's unique-cluster demand.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/lru_cache.h"
#include "core/engine.h"
#include "dataset/synthetic.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricRegistry;
using telemetry::ShardedCounter;
using telemetry::TraceBuffer;
using telemetry::TraceContext;
using telemetry::TraceEvent;
using telemetry::TraceExportOptions;
using telemetry::TraceScope;

TEST(MetricRegistryTest, GetIsIdempotentByName) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("requests");
  Counter* b = registry.GetCounter("requests");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);

  // Distinct names and kinds get distinct instruments.
  EXPECT_NE(registry.GetGauge("resident"), nullptr);
  EXPECT_NE(registry.GetHistogram("latency"), nullptr);
  EXPECT_NE(registry.GetShardedCounter("hot"), nullptr);
}

TEST(MetricRegistryTest, SnapshotFindsValuesByName) {
  MetricRegistry registry;
  registry.GetCounter("c")->Add(7);
  registry.GetGauge("g")->Set(-4);
  registry.GetHistogram("h")->Record(100);
  registry.GetShardedCounter("s")->Add(9);

  const telemetry::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("c"), 7);
  EXPECT_EQ(snap.Value("g"), -4);
  EXPECT_EQ(snap.Value("s"), 9);
  EXPECT_EQ(snap.Value("absent", -1), -1);
  ASSERT_NE(snap.Find("h"), nullptr);
  EXPECT_EQ(snap.Find("h")->value, 1);   // histogram count
  EXPECT_EQ(snap.Find("h")->sum, 100u);
  // Samples come out sorted by name.
  for (size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_LT(snap.samples[i - 1].name, snap.samples[i].name);
  }
}

TEST(MetricRegistryTest, ResetAllZeroesButKeepsPointers) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  c->Add(5);
  g->Set(5);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(registry.GetCounter("c"), c);
}

TEST(HistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1), UINT64_MAX);

  Histogram h;
  h.Record(0);  // bucket 0
  h.Record(1);  // bucket 1
  h.Record(2);  // bucket 2: [2, 3]
  h.Record(3);
  h.Record(1000);  // bucket 10: [512, 1023]
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
}

TEST(HistogramTest, ApproxPercentileReturnsBucketUpperBound) {
  Histogram h;
  EXPECT_EQ(h.ApproxPercentile(50.0), 0u);  // empty contract: 0
  for (int i = 0; i < 90; ++i) h.Record(2);     // bucket 2, upper bound 3
  for (int i = 0; i < 10; ++i) h.Record(5000);  // bucket 13, upper bound 8191
  EXPECT_EQ(h.ApproxPercentile(50.0), 3u);
  EXPECT_EQ(h.ApproxPercentile(99.0), 8191u);
  EXPECT_EQ(h.ApproxPercentile(0.0), 3u);  // nearest-rank: never below rank 1
}

TEST(ShardedCounterTest, SumsAcrossThreads) {
  ShardedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 1000; ++i) counter.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), 8000u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(TraceBufferTest, BoundedAppendDropsAndCounts) {
  TraceBuffer buffer(2);
  EXPECT_TRUE(buffer.enabled());
  buffer.Append(TraceEvent{"a", 1});
  buffer.Append(TraceEvent{"b", 1});
  buffer.Append(TraceEvent{"c", 1});  // over capacity: dropped, counted
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 1u);

  // Clear forgets events but keeps the reservation (capacity + enabled).
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(buffer.capacity(), 2u);
  EXPECT_TRUE(buffer.enabled());

  // A default (capacity 0) buffer is disabled: appends are silent no-ops.
  TraceBuffer off;
  EXPECT_FALSE(off.enabled());
  off.Append(TraceEvent{"x", 1});
  EXPECT_EQ(off.size(), 0u);
  EXPECT_EQ(off.dropped(), 0u);
}

TEST(TraceBufferTest, DisabledContextIsANoOp) {
  TraceContext ctx;  // default: no buffer, no clock
  EXPECT_FALSE(ctx.enabled());
  ctx.Event("nothing");                 // must not crash
  { TraceScope scope(ctx, "nothing"); }  // must not crash
}

TEST(TraceJsonlTest, FixedKeyOrderAndOptionalFields) {
  TraceBuffer buffer(4);
  buffer.Append(TraceEvent{"batch", 3, TraceEvent::kNoQuery, 10, 25, 999, 7, 8});
  buffer.Append(TraceEvent{"query.sub", 3, 2, 11, 12, 5, 42, 0});

  const std::string deterministic =
      TraceToJsonl(buffer, TraceExportOptions{.include_wall = false});
  EXPECT_EQ(deterministic,
            "{\"name\":\"batch\",\"batch\":3,\"sim_start_ns\":10,\"sim_end_ns\":25,"
            "\"a\":7,\"b\":8}\n"
            "{\"name\":\"query.sub\",\"batch\":3,\"query\":2,\"sim_start_ns\":11,"
            "\"sim_end_ns\":12,\"a\":42,\"b\":0}\n");

  const std::string with_wall = TraceToJsonl(buffer);  // default includes wall
  EXPECT_NE(with_wall.find("\"wall_ns\":999"), std::string::npos);
  // Identical buffers serialize byte-identically (the CI determinism check).
  EXPECT_EQ(deterministic, TraceToJsonl(buffer, TraceExportOptions{.include_wall = false}));
}

TEST(LruCacheTelemetryTest, CountersAndGaugeTrackCacheTraffic) {
  MetricRegistry registry;
  Counter* hits = registry.GetCounter("hits");
  Counter* misses = registry.GetCounter("misses");
  Gauge* entries = registry.GetGauge("entries");

  LruCache<int, int> cache(2);
  cache.AttachTelemetry(hits, misses, entries);

  EXPECT_EQ(cache.Get(1), nullptr);  // miss
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_NE(cache.Get(1), nullptr);  // hit
  cache.Put(3, 30);                  // evicts 2 (1 was just touched)
  EXPECT_EQ(cache.Get(2), nullptr);  // miss (evicted)

  EXPECT_EQ(hits->value(), 1u);
  EXPECT_EQ(misses->value(), 2u);
  EXPECT_EQ(entries->value(), 2);  // {1, 3} resident

  cache.Erase(1);
  EXPECT_EQ(entries->value(), 1);
  cache.Clear();
  EXPECT_EQ(entries->value(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end contracts on the instrumented engine.
// ---------------------------------------------------------------------------

DhnswConfig SmallConfig() {
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 6;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 40};
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 2;  // smaller than the per-batch demand
  return config;
}

/// Cluster-level cache accounting must close: every unique cluster a batch
/// demands is accounted either as a hit (resident at plan time or becoming
/// resident mid-batch) or as a miss (loaded), across repeated batches and
/// evictions — with pruning off and no faults there is no third outcome.
TEST(TelemetryEngineTest, CacheHitsPlusMissesEqualUniqueClustersRequested) {
  Dataset ds = MakeSynthetic({.dim = 8, .num_base = 900, .num_queries = 30,
                              .num_clusters = 6, .seed = 211});
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());

  MetricRegistry& reg = telemetry::DefaultRegistry();
  const auto read = [&reg] {
    const telemetry::MetricsSnapshot snap = reg.Snapshot();
    struct View {
      int64_t hits, misses, unique;
    } v{snap.Value("dhnsw_compute_cache_hit_clusters_total"),
        snap.Value("dhnsw_compute_cache_miss_clusters_total"),
        snap.Value("dhnsw_scheduler_unique_clusters_total")};
    return v;
  };

  const auto before = read();
  // Three identical batches: the first is all-cold; later ones mix hits with
  // re-misses forced by the capacity-2 cache evicting mid-batch.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(engine.value().SearchAll(ds.queries, 5, 32).ok());
  }
  const auto after = read();

  const int64_t hits = after.hits - before.hits;
  const int64_t misses = after.misses - before.misses;
  const int64_t unique = after.unique - before.unique;
  EXPECT_GT(misses, 0);
  EXPECT_GT(unique, 0);
  EXPECT_EQ(hits + misses, unique)
      << "hits " << hits << " + misses " << misses << " != unique " << unique;
  // Capacity 2 < per-batch demand, so even repeated identical batches keep
  // missing (eviction pressure), and the first batch was fully cold.
  EXPECT_GE(misses, unique / 3);
}

/// The disjoint stage.* spans must account for >= 95% of the batch umbrella
/// span, in both time bases — the coverage contract that makes the trace a
/// trustworthy latency breakdown.
TEST(TelemetryEngineTest, StageSpansCoverBatchLatency) {
  Dataset ds = MakeSynthetic({.dim = 32, .num_base = 4000, .num_queries = 200,
                              .num_clusters = 8, .seed = 212});
  // At 4 threads the route and sub-search stages run on the search pool;
  // their spans must still cover the batch.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "search_threads " << threads);
    DhnswConfig config = DhnswConfig::Defaults();
    config.meta.num_representatives = 10;
    config.sub_hnsw = HnswOptions{.M = 12, .ef_construction = 60};
    config.compute.clusters_per_query = 3;
    config.compute.cache_capacity = 10;
    config.compute.search_threads = threads;
    auto engine = DhnswEngine::Build(ds.base, config);
    ASSERT_TRUE(engine.ok());

    engine.value().EnableTracing(1 << 16);
    ASSERT_TRUE(engine.value().SearchAll(ds.queries, 10, 64).ok());

    const telemetry::TraceBuffer& trace = engine.value().trace(0);
    ASSERT_GT(trace.size(), 0u);
    ASSERT_EQ(trace.dropped(), 0u);

    uint64_t batch_wall = 0, batch_sim = 0;
    uint64_t stage_wall = 0, stage_sim = 0;
    for (const TraceEvent& e : trace.events()) {
      const std::string_view name(e.name);
      if (name == "batch") {
        batch_wall += e.wall_ns;
        batch_sim += e.sim_end_ns - e.sim_start_ns;
      } else if (name.rfind("stage.", 0) == 0) {
        stage_wall += e.wall_ns;
        stage_sim += e.sim_end_ns - e.sim_start_ns;
      }
    }
    ASSERT_GT(batch_wall, 0u);
    // Simulated time only advances inside fabric operations, all of which
    // sit under a stage span — coverage is exact.
    EXPECT_EQ(stage_sim, batch_sim);
    // Wall time has small out-of-stage gaps (heap setup, wave bookkeeping,
    // metric flushes); they must stay under 5% of the batch.
    EXPECT_GE(static_cast<double>(stage_wall), 0.95 * static_cast<double>(batch_wall))
        << "stages cover only " << 100.0 * static_cast<double>(stage_wall) /
               static_cast<double>(batch_wall) << "% of the batch wall time";
  }
}

/// Engine-level snapshot/export plumbing: topology gauges are published and
/// the Prometheus text carries the instrumented families.
TEST(TelemetryEngineTest, MetricsSnapshotPublishesTopology) {
  Dataset ds = MakeSynthetic({.dim = 8, .num_base = 600, .num_queries = 10,
                              .num_clusters = 4, .seed = 213});
  // The topology assertions count the bare (sim) rdma instruments; real
  // backends report under {transport="..."}-labelled names instead.
  DhnswConfig topo_config = SmallConfig();
  topo_config.transport = rdma::TransportOptions::Sim();
  auto engine = DhnswEngine::Build(ds.base, topo_config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value().SearchAll(ds.queries, 5, 32).ok());

  const telemetry::MetricsSnapshot snap = engine.value().MetricsSnapshot();
  EXPECT_EQ(snap.Value("dhnsw_engine_partitions"), 6);
  EXPECT_EQ(snap.Value("dhnsw_engine_compute_nodes"), 1);
  EXPECT_GT(snap.Value("dhnsw_engine_region_bytes"), 0);
  EXPECT_GT(snap.Value("dhnsw_compute_batches_total"), 0);
  EXPECT_GT(snap.Value("dhnsw_rdma_round_trips_total"), 0);

  const std::string text = engine.value().MetricsText();
  EXPECT_NE(text.find("# TYPE dhnsw_engine_partitions gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dhnsw_compute_batch_network_ns histogram"),
            std::string::npos);
}

}  // namespace
}  // namespace dhnsw
