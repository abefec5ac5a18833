// Proves the allocation-free search contract (index/hnsw.h): after warm-up,
// HnswIndex::Search(query, k, ef, out) — and ClusterView::Search over a
// fetched blob (serialize/cluster_blob.h) — performs zero heap allocations.
//
// Mechanism: global operator new/delete are replaced with counting versions
// (gtest and the index itself allocate freely outside the measured window;
// the counter is only compared across the steady-state window).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "index/hnsw.h"
#include "serialize/cluster_blob.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace dhnsw {
namespace {

TEST(SearchAllocTest, SteadyStateSearchDoesNotAllocate) {
  constexpr uint32_t kDim = 32;
  constexpr size_t kCount = 2000;
  HnswOptions options;
  options.M = 8;
  options.ef_construction = 60;
  HnswIndex index(kDim, options);

  Xoshiro256 rng(0xa110cu);
  std::vector<float> v(kDim);
  for (size_t i = 0; i < kCount; ++i) {
    for (float& x : v) x = static_cast<float>(rng.NextDouble());
    index.Add(v);
  }

  std::vector<float> query(kDim);
  std::vector<Scored> out;
  // Warm-up: grows the scratch pool, the pooled containers, and `out`.
  for (int i = 0; i < 10; ++i) {
    for (float& x : query) x = static_cast<float>(rng.NextDouble());
    index.Search(query, 10, 50, &out);
    ASSERT_FALSE(out.empty());
  }

  const uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    for (float& x : query) x = static_cast<float>(rng.NextDouble());
    index.Search(query, 10, 50, &out);
    ASSERT_EQ(out.size(), 10u);
  }
  const uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in 100 steady-state searches";
}

// The telemetry record path must keep the same contract: with instruments
// resolved up front and a pre-reserved trace buffer, a fully instrumented
// steady-state search loop (spans + events + counter/gauge/histogram/sharded
// updates around every Search) performs zero heap allocations.
TEST(SearchAllocTest, InstrumentedSearchDoesNotAllocate) {
  constexpr uint32_t kDim = 32;
  HnswOptions options;
  options.M = 8;
  options.ef_construction = 60;
  HnswIndex index(kDim, options);

  Xoshiro256 rng(0x7e1eu);
  std::vector<float> v(kDim);
  for (size_t i = 0; i < 1000; ++i) {
    for (float& x : v) x = static_cast<float>(rng.NextDouble());
    index.Add(v);
  }

  // Control plane: registration may allocate, so it happens before the
  // measured window — exactly how components resolve instruments once.
  telemetry::MetricRegistry& registry = telemetry::DefaultRegistry();
  telemetry::Counter* searches = registry.GetCounter("alloc_test_searches_total");
  telemetry::Gauge* inflight = registry.GetGauge("alloc_test_inflight");
  telemetry::Histogram* latency = registry.GetHistogram("alloc_test_latency_ns");
  telemetry::ShardedCounter* visited = registry.GetShardedCounter("alloc_test_visited");
  SimClock clock;
  telemetry::TraceBuffer buffer(1024);
  telemetry::TraceContext ctx{&buffer, &clock, 1};

  std::vector<float> query(kDim);
  std::vector<Scored> out;
  for (int i = 0; i < 10; ++i) {  // warm-up (scratch pool + thread-local shard)
    for (float& x : query) x = static_cast<float>(rng.NextDouble());
    telemetry::TraceScope span(ctx, "warmup");
    index.Search(query, 10, 50, &out);
    visited->Add(1);
  }

  const uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    for (float& x : query) x = static_cast<float>(rng.NextDouble());
    inflight->Add(1);
    {
      telemetry::TraceScope span(ctx, "query.sub", static_cast<uint32_t>(i));
      index.Search(query, 10, 50, &out);
      span.set_args(out.size());
    }
    ctx.Event("cache.miss", telemetry::TraceEvent::kNoQuery, static_cast<uint64_t>(i));
    searches->Add(1);
    latency->Record(static_cast<uint64_t>(i) * 37);
    visited->Add(out.size());
    inflight->Add(-1);
    ASSERT_EQ(out.size(), 10u);
  }
  const uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in 100 instrumented searches";
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(searches->value(), 100u);
}

// The compute node's sub-search path: a view parsed in place over a fetched
// buffer searches with thread-local scratch and allocates nothing once warm.
TEST(SearchAllocTest, SteadyStateViewSearchDoesNotAllocate) {
  constexpr uint32_t kDim = 32;
  constexpr uint32_t kCount = 1500;
  HnswIndex index(kDim, {.M = 8, .ef_construction = 60});
  Xoshiro256 rng(0x71e3u);
  std::vector<float> v(kDim);
  for (uint32_t i = 0; i < kCount; ++i) {
    for (float& x : v) x = static_cast<float>(rng.NextDouble());
    index.Add(v);
  }
  std::vector<uint32_t> gids(kCount);
  for (uint32_t i = 0; i < kCount; ++i) gids[i] = i;
  const std::vector<uint8_t> blob = EncodeCluster(Cluster(0, std::move(index), gids));
  AlignedBuffer fetched(blob.size(), 64);
  std::memcpy(fetched.data(), blob.data(), blob.size());
  auto view = ClusterView::Parse(std::as_const(fetched).span(), {.dim = kDim});
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  std::vector<float> query(kDim);
  std::vector<Scored> out;
  for (int i = 0; i < 10; ++i) {  // warm-up: thread-local scratch and `out`
    for (float& x : query) x = static_cast<float>(rng.NextDouble());
    view.value().Search(query, 10, 50, &out);
    ASSERT_FALSE(out.empty());
  }

  const uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    for (float& x : query) x = static_cast<float>(rng.NextDouble());
    view.value().Search(query, 10, 50, &out);
    ASSERT_EQ(out.size(), 10u);
  }
  const uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in 100 steady-state view searches";
}

TEST(SearchAllocTest, AllocatingOverloadStillWorks) {
  constexpr uint32_t kDim = 8;
  HnswIndex index(kDim, HnswOptions{});
  Xoshiro256 rng(7);
  std::vector<float> v(kDim);
  for (int i = 0; i < 50; ++i) {
    for (float& x : v) x = static_cast<float>(rng.NextDouble());
    index.Add(v);
  }
  const std::vector<Scored> a = index.Search(v, 5, 20);
  std::vector<Scored> b;
  index.Search(v, 5, 20, &b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

}  // namespace
}  // namespace dhnsw
