#include "core/compute_node.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/engine.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"

namespace dhnsw {
namespace {

/// Shared small system: one memory node + engine-built layout; tests attach
/// extra compute nodes with the options they need.
class ComputeNodeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(MakeSynthetic({.dim = 8, .num_base = 2000, .num_queries = 40,
                                     .num_clusters = 12, .seed = 61}));
    ComputeGroundTruth(ds_, 10);

    DhnswConfig config = DhnswConfig::Defaults();
    config.meta.num_representatives = 24;
    config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 60};
    config.layout.overflow_bytes_per_group = 8192;
    config.compute.clusters_per_query = 3;
    config.compute.cache_capacity = 6;
    auto engine = DhnswEngine::Build(ds_->base, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = new DhnswEngine(std::move(engine).value());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete ds_;
    engine_ = nullptr;
    ds_ = nullptr;
  }

  /// Fresh compute node with custom options on the shared fabric.
  static std::unique_ptr<ComputeNode> Attach(ComputeOptions options) {
    auto node = std::make_unique<ComputeNode>(&engine_->fabric(),
                                              engine_->memory_handle(), options);
    EXPECT_TRUE(node->Connect().ok());
    return node;
  }

  static ComputeOptions BaseOptions(EngineMode mode) {
    ComputeOptions options;
    options.mode = mode;
    options.clusters_per_query = 3;
    options.cache_capacity = 6;
    options.doorbell_batch = 8;
    return options;
  }

  static Dataset* ds_;
  static DhnswEngine* engine_;
};

Dataset* ComputeNodeTest::ds_ = nullptr;
DhnswEngine* ComputeNodeTest::engine_ = nullptr;

TEST_F(ComputeNodeTest, ConnectCachesMetaHnsw) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  EXPECT_TRUE(node->connected());
  EXPECT_EQ(node->meta().num_partitions(), 24u);
  EXPECT_EQ(node->num_clusters(), 24u);
}

TEST_F(ComputeNodeTest, SearchBeforeConnectFails) {
  ComputeNode node(&engine_->fabric(), engine_->memory_handle(),
                   BaseOptions(EngineMode::kFull));
  EXPECT_EQ(node.SearchAll(ds_->queries, 10, 32).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(ComputeNodeTest, ReasonableRecallOnClusteredData) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  auto result = node->SearchAll(ds_->queries, 10, 64);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double recall = MeanRecallAtK(*ds_, result.value().results, 10);
  EXPECT_GT(recall, 0.8) << "recall@10 = " << recall;
}

TEST_F(ComputeNodeTest, AllModesReturnIdenticalResults) {
  // The three schemes differ only in data movement, never in answers.
  auto naive = Attach(BaseOptions(EngineMode::kNaive));
  auto nodb = Attach(BaseOptions(EngineMode::kNoDoorbell));
  auto full = Attach(BaseOptions(EngineMode::kFull));

  auto r_naive = naive->SearchAll(ds_->queries, 10, 48);
  auto r_nodb = nodb->SearchAll(ds_->queries, 10, 48);
  auto r_full = full->SearchAll(ds_->queries, 10, 48);
  ASSERT_TRUE(r_naive.ok());
  ASSERT_TRUE(r_nodb.ok());
  ASSERT_TRUE(r_full.ok());

  for (size_t qi = 0; qi < ds_->queries.size(); ++qi) {
    const auto& a = r_naive.value().results[qi];
    const auto& b = r_nodb.value().results[qi];
    const auto& c = r_full.value().results[qi];
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id) << "query " << qi;
      EXPECT_EQ(a[j].id, c[j].id) << "query " << qi;
    }
  }
}

TEST_F(ComputeNodeTest, RoundTripOrderingAcrossModes) {
  // Naive must burn the most round trips; doorbell batching must cut them
  // further below no-doorbell. (Each node refreshes metadata once per batch.)
  auto naive = Attach(BaseOptions(EngineMode::kNaive));
  auto nodb = Attach(BaseOptions(EngineMode::kNoDoorbell));
  auto full = Attach(BaseOptions(EngineMode::kFull));

  const uint64_t rt_naive = naive->SearchAll(ds_->queries, 10, 48).value().breakdown.round_trips;
  const uint64_t rt_nodb = nodb->SearchAll(ds_->queries, 10, 48).value().breakdown.round_trips;
  const uint64_t rt_full = full->SearchAll(ds_->queries, 10, 48).value().breakdown.round_trips;

  EXPECT_GT(rt_naive, rt_nodb);
  EXPECT_GT(rt_nodb, rt_full);
  // Naive: one RT per (query, cluster) pair + 1 metadata refresh.
  EXPECT_EQ(rt_naive, ds_->queries.size() * 3 + 1);
}

TEST_F(ComputeNodeTest, NetworkTimeOrderingAcrossModes) {
  // Simulator contract: the 5x naive/d-HNSW gap reasons about deterministic
  // NicModel charges. On a real socket network_us is measured wall time,
  // where loopback noise under a loaded test machine can compress the
  // ratio — so this test pins its own sim-backed engine instead of the
  // env-respecting shared fixture.
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 24;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 60};
  config.layout.overflow_bytes_per_group = 8192;
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 6;
  config.transport = rdma::TransportOptions::Sim();
  auto engine = DhnswEngine::Build(ds_->base, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto attach = [&](EngineMode mode) {
    auto node = std::make_unique<ComputeNode>(&engine.value().fabric(),
                                              engine.value().memory_handle(),
                                              BaseOptions(mode));
    EXPECT_TRUE(node->Connect().ok());
    return node;
  };
  auto naive = attach(EngineMode::kNaive);
  auto full = attach(EngineMode::kFull);
  const double net_naive =
      naive->SearchAll(ds_->queries, 10, 48).value().breakdown.network_us;
  const double net_full =
      full->SearchAll(ds_->queries, 10, 48).value().breakdown.network_us;
  EXPECT_GT(net_naive, net_full * 5) << "expected a large naive/d-HNSW gap";
}

TEST_F(ComputeNodeTest, CacheCarriesAcrossBatches) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  auto first = node->SearchAll(ds_->queries, 10, 32);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(node->cache_size(), 0u);
  // Re-running the same batch: everything it kept resident is a hit.
  auto second = node->SearchAll(ds_->queries, 10, 32);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value().breakdown.cache_hits, 0u);
  EXPECT_LT(second.value().breakdown.clusters_loaded,
            first.value().breakdown.clusters_loaded);
}

TEST_F(ComputeNodeTest, NaiveModeNeverCaches) {
  auto node = Attach(BaseOptions(EngineMode::kNaive));
  ASSERT_TRUE(node->SearchAll(ds_->queries, 10, 32).ok());
  EXPECT_EQ(node->cache_size(), 0u);
}

TEST_F(ComputeNodeTest, InvalidateCacheForcesReload) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  ASSERT_TRUE(node->SearchAll(ds_->queries, 10, 32).ok());
  node->InvalidateCache();
  EXPECT_EQ(node->cache_size(), 0u);
  auto again = node->SearchAll(ds_->queries, 10, 32);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().breakdown.cache_hits, 0u);
}

TEST_F(ComputeNodeTest, BatchRangeOutOfBoundsFails) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  EXPECT_FALSE(node->SearchBatch(ds_->queries, 30, 20, 10, 32).ok());
}

TEST_F(ComputeNodeTest, BatchRangeCheckDoesNotWrap) {
  // begin + count wraps to 0 or nearly so: a check written as a sum lets
  // these through and routes rows outside the query buffer.
  auto node = Attach(BaseOptions(EngineMode::kFull));
  EXPECT_EQ(node->SearchBatch(ds_->queries, SIZE_MAX, 1, 10, 48).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(node->SearchBatch(ds_->queries, 1, SIZE_MAX, 10, 48).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(node->SearchBatch(ds_->queries, ds_->queries.size() + 1, 0, 10, 48)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // The empty range at the end is in bounds.
  EXPECT_TRUE(node->SearchBatch(ds_->queries, ds_->queries.size(), 0, 10, 48).ok());
}

TEST_F(ComputeNodeTest, DimMismatchFails) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  VectorSet wrong(4);
  wrong.Append(std::vector<float>(4, 0.0f));
  EXPECT_FALSE(node->SearchAll(wrong, 10, 32).ok());
}

TEST_F(ComputeNodeTest, BreakdownAccountsAllPhases) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  auto result = node->SearchAll(ds_->queries, 10, 48);
  ASSERT_TRUE(result.ok());
  const BatchBreakdown& b = result.value().breakdown;
  EXPECT_EQ(b.num_queries, ds_->queries.size());
  EXPECT_GT(b.network_us, 0.0);
  EXPECT_GT(b.meta_us, 0.0);
  EXPECT_GT(b.sub_us, 0.0);
  EXPECT_GT(b.bytes_read, 0u);
  EXPECT_GT(b.round_trips, 0u);
  EXPECT_GT(b.per_query_network_us(), 0.0);
}

TEST_F(ComputeNodeTest, SearchWithThreadsMatchesSequential) {
  ComputeOptions seq = BaseOptions(EngineMode::kFull);
  ComputeOptions par = BaseOptions(EngineMode::kFull);
  par.search_threads = 4;
  auto a = Attach(seq)->SearchAll(ds_->queries, 10, 48);
  auto b = Attach(par)->SearchAll(ds_->queries, 10, 48);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t qi = 0; qi < ds_->queries.size(); ++qi) {
    ASSERT_EQ(a.value().results[qi].size(), b.value().results[qi].size());
    for (size_t j = 0; j < a.value().results[qi].size(); ++j) {
      EXPECT_EQ(a.value().results[qi][j].id, b.value().results[qi][j].id);
    }
  }
}

TEST_F(ComputeNodeTest, UnreachableMemoryNodeSurfacesError) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  node->InvalidateCache();
  engine_->fabric().SetNodeReachable(engine_->memory_handle().node, false);
  const auto result = node->SearchAll(ds_->queries, 10, 32);
  EXPECT_FALSE(result.ok());
  engine_->fabric().SetNodeReachable(engine_->memory_handle().node, true);
  EXPECT_TRUE(node->SearchAll(ds_->queries, 10, 32).ok());
}

TEST_F(ComputeNodeTest, TinyCacheStillAnswersCorrectly) {
  ComputeOptions options = BaseOptions(EngineMode::kFull);
  options.cache_capacity = 1;  // forces many waves per batch
  auto node = Attach(options);
  auto tiny = node->SearchAll(ds_->queries, 10, 48);
  ASSERT_TRUE(tiny.ok());
  auto big = Attach(BaseOptions(EngineMode::kFull))->SearchAll(ds_->queries, 10, 48);
  ASSERT_TRUE(big.ok());
  for (size_t qi = 0; qi < ds_->queries.size(); ++qi) {
    ASSERT_EQ(tiny.value().results[qi].size(), big.value().results[qi].size());
    for (size_t j = 0; j < tiny.value().results[qi].size(); ++j) {
      EXPECT_EQ(tiny.value().results[qi][j].id, big.value().results[qi][j].id);
    }
  }
}

TEST_F(ComputeNodeTest, InsertedVectorIsFoundByLaterQueries) {
  auto node = Attach(BaseOptions(EngineMode::kFull));

  // A vector far from everything, then queried exactly.
  std::vector<float> outlier(8, 500.0f);
  auto receipt = node->Insert(outlier, /*global_id=*/900001);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();

  VectorSet probe(8);
  probe.Append(outlier);
  auto result = node->SearchAll(probe, 1, 32);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().results[0].size(), 1u);
  EXPECT_EQ(result.value().results[0][0].id, 900001u);
  EXPECT_FLOAT_EQ(result.value().results[0][0].distance, 0.0f);
}

TEST_F(ComputeNodeTest, InsertVisibleToOtherComputeNodes) {
  auto writer = Attach(BaseOptions(EngineMode::kFull));
  auto reader = Attach(BaseOptions(EngineMode::kFull));

  std::vector<float> outlier(8, -400.0f);
  ASSERT_TRUE(writer->Insert(outlier, 900002).ok());

  VectorSet probe(8);
  probe.Append(outlier);
  auto result = reader->SearchAll(probe, 1, 32);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().results[0].empty());
  EXPECT_EQ(result.value().results[0][0].id, 900002u);
}

TEST_F(ComputeNodeTest, InsertDimMismatchFails) {
  auto node = Attach(BaseOptions(EngineMode::kFull));
  EXPECT_FALSE(node->Insert(std::vector<float>(5, 1.0f), 1).ok());
}

TEST_F(ComputeNodeTest, OverflowCapacityExhaustionReportsCapacity) {
  // A dedicated small system with a tiny overflow area.
  Dataset ds = MakeSynthetic({.dim = 8, .num_base = 200, .num_queries = 2,
                              .num_clusters = 2, .seed = 62});
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 2;
  config.sub_hnsw = HnswOptions{.M = 4, .ef_construction = 20};
  config.layout.overflow_bytes_per_group = 128;  // fits only a couple records
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(engine.ok());

  // record = 8 + 32 = 40 bytes; capacity 128 -> 3 records shared per group.
  std::vector<float> v(8, 1.0f);
  int inserted = 0;
  Status last = Status::Ok();
  for (int i = 0; i < 10; ++i) {
    auto id = engine.value().Insert(v);
    if (id.ok()) {
      ++inserted;
    } else {
      last = id.status();
      break;
    }
  }
  EXPECT_GT(inserted, 0);
  EXPECT_LE(inserted, 3);
  EXPECT_EQ(last.code(), StatusCode::kCapacity);
}

}  // namespace
}  // namespace dhnsw
