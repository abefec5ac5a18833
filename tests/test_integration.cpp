// Cross-module integration tests: the full d-HNSW pipeline at a moderately
// realistic (but CI-friendly) scale, checking the paper's qualitative claims
// end to end.
#include <gtest/gtest.h>

#include "core/compute_node.h"
#include "core/engine.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"

namespace dhnsw {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(MakeSiftLike(6000, 60, /*seed=*/81));
    ComputeGroundTruth(ds_, 10);

    DhnswConfig config = DhnswConfig::Defaults();
    // The suite compares modeled network_us across modes (doorbell vs not,
    // warm vs cold cache) — deterministic only under the NicModel, so pin
    // the sim backend; measured loopback wall time is too noisy to order.
    config.transport = rdma::TransportOptions::Sim();
    config.meta.num_representatives = 50;
    config.sub_hnsw = HnswOptions{.M = 12, .ef_construction = 80};
    config.compute.clusters_per_query = 4;
    config.compute.cache_capacity = 10;   // 20% of 50 partitions
    config.compute.doorbell_batch = 8;
    auto engine = DhnswEngine::Build(ds_->base, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = new DhnswEngine(std::move(engine).value());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete ds_;
  }

  static std::unique_ptr<ComputeNode> Attach(EngineMode mode) {
    ComputeOptions options;
    options.mode = mode;
    options.clusters_per_query = 4;
    options.cache_capacity = 10;
    options.doorbell_batch = 8;
    auto node = std::make_unique<ComputeNode>(&engine_->fabric(),
                                              engine_->memory_handle(), options);
    EXPECT_TRUE(node->Connect().ok());
    return node;
  }

  static Dataset* ds_;
  static DhnswEngine* engine_;
};

Dataset* IntegrationTest::ds_ = nullptr;
DhnswEngine* IntegrationTest::engine_ = nullptr;

TEST_F(IntegrationTest, RecallAtTenIsCompetitive) {
  auto result = engine_->SearchAll(ds_->queries, 10, 48);
  ASSERT_TRUE(result.ok());
  const double recall = MeanRecallAtK(*ds_, result.value().results, 10);
  // Paper reports ~0.86-0.87 on SIFT1M at efSearch 48 with b clusters; our
  // clustered synthetic stand-in routes more cleanly, so require >= 0.8.
  EXPECT_GT(recall, 0.8) << "recall@10 = " << recall;
}

TEST_F(IntegrationTest, RecallGrowsWithEfSearch) {
  // ef trades recall for time only in the sub-HNSW walk; the default mode
  // scans this corpus's ~120-row partitions exactly, so pin the graph.
  double prev = -1.0;
  for (uint32_t ef : {1u, 8u, 48u}) {
    auto node = Attach(EngineMode::kFull);
    node->mutable_options()->sub_search = SubSearchMode::kGraph;
    auto result = node->SearchAll(ds_->queries, 10, ef);
    ASSERT_TRUE(result.ok());
    const double recall = MeanRecallAtK(*ds_, result.value().results, 10);
    EXPECT_GE(recall, prev - 0.02) << "ef " << ef;  // allow tiny noise
    prev = recall;
  }
  EXPECT_GT(prev, 0.75);
}

TEST_F(IntegrationTest, NaiveLatencyGapIsLarge) {
  // Headline claim: d-HNSW vs naive is a 100x-class network-latency gap at
  // batch scale. Verify the simulated network times reproduce the ordering
  // and a substantial (>=10x) gap at this reduced scale.
  auto naive = Attach(EngineMode::kNaive);
  auto full = Attach(EngineMode::kFull);

  const double net_naive =
      naive->SearchAll(ds_->queries, 10, 48).value().breakdown.network_us;
  const double net_full =
      full->SearchAll(ds_->queries, 10, 48).value().breakdown.network_us;
  // At this CI scale (60-query batch, 50 partitions) the dedup ratio caps the
  // gap near ~8x; the paper's 117x needs 2000-query batches (see bench/).
  EXPECT_GT(net_naive / net_full, 5.0)
      << "naive " << net_naive << "us vs d-HNSW " << net_full << "us";
}

TEST_F(IntegrationTest, DoorbellBeatsNoDoorbellOnNetworkTime) {
  auto nodb = Attach(EngineMode::kNoDoorbell);
  auto full = Attach(EngineMode::kFull);
  const double net_nodb =
      nodb->SearchAll(ds_->queries, 10, 48).value().breakdown.network_us;
  const double net_full =
      full->SearchAll(ds_->queries, 10, 48).value().breakdown.network_us;
  // Paper: 1.12x-1.30x improvement. Same payload bytes, fewer round trips.
  EXPECT_GT(net_nodb, net_full);
}

TEST_F(IntegrationTest, RoundTripsPerQueryShrinkDramatically) {
  auto naive = Attach(EngineMode::kNaive);
  auto full = Attach(EngineMode::kFull);
  const auto bd_naive = naive->SearchAll(ds_->queries, 10, 48).value().breakdown;
  const auto bd_full = full->SearchAll(ds_->queries, 10, 48).value().breakdown;
  // Naive: b RTs per query (plus one refresh). d-HNSW amortizes loads across
  // the batch: well under one RT per query.
  EXPECT_NEAR(bd_naive.per_query_round_trips(), 4.0, 0.2);
  EXPECT_LT(bd_full.per_query_round_trips(), 1.0);
}

TEST_F(IntegrationTest, SecondBatchBenefitsFromWarmCache) {
  auto node = Attach(EngineMode::kFull);
  const auto cold = node->SearchAll(ds_->queries, 10, 48).value().breakdown;
  const auto warm = node->SearchAll(ds_->queries, 10, 48).value().breakdown;
  EXPECT_LE(warm.clusters_loaded, cold.clusters_loaded);
  EXPECT_LE(warm.network_us, cold.network_us);
  EXPECT_GT(warm.cache_hits, 0u);
}

TEST_F(IntegrationTest, BytesOnWireMatchClusterSizes) {
  auto node = Attach(EngineMode::kFull);
  const auto bd = node->SearchAll(ds_->queries, 10, 48).value().breakdown;
  // Every loaded cluster moved its blob (plus metadata refresh); bytes must
  // be positive and consistent with at most all clusters loading.
  uint64_t total_blob_bytes = 0;
  for (uint32_t c = 0; c < engine_->num_partitions(); ++c) {
    total_blob_bytes += engine_->memory_node()->plan().entries[c].blob_size;
  }
  EXPECT_GT(bd.bytes_read, 0u);
  EXPECT_LE(bd.bytes_read, total_blob_bytes + (1u << 20));
}

TEST_F(IntegrationTest, SmallBatchesStillCorrect) {
  // Batch size 1 (degenerate batching) must work and agree with full batch.
  auto batched = Attach(EngineMode::kFull);
  auto single = Attach(EngineMode::kFull);

  auto full_result = batched->SearchAll(ds_->queries, 10, 48);
  ASSERT_TRUE(full_result.ok());
  for (size_t qi = 0; qi < 10; ++qi) {
    auto one = single->SearchBatch(ds_->queries, qi, 1, 10, 48);
    ASSERT_TRUE(one.ok());
    const auto& a = one.value().results[0];
    const auto& b = full_result.value().results[qi];
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
  }
}

TEST_F(IntegrationTest, InsertThenQueryAcrossModes) {
  auto writer = Attach(EngineMode::kFull);
  std::vector<float> outlier(128, 1234.5f);
  ASSERT_TRUE(writer->Insert(outlier, 777777).ok());

  VectorSet probe(128);
  probe.Append(outlier);
  for (EngineMode mode : {EngineMode::kNaive, EngineMode::kNoDoorbell, EngineMode::kFull}) {
    auto node = Attach(mode);
    auto result = node->SearchAll(probe, 1, 32);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result.value().results[0].empty());
    EXPECT_EQ(result.value().results[0][0].id, 777777u)
        << "mode " << EngineModeName(mode);
  }
}

TEST_F(IntegrationTest, GistLikeHighDimensionalPipeline) {
  // 960-d end-to-end smoke: small scale, checks dimension handling + recall.
  Dataset gist = MakeGistLike(800, 10, /*seed=*/82);
  ComputeGroundTruth(&gist, 5);
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 10;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 40};
  config.compute.clusters_per_query = 3;
  auto engine = DhnswEngine::Build(gist.base, config);
  ASSERT_TRUE(engine.ok());
  auto result = engine.value().SearchAll(gist.queries, 5, 48);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(MeanRecallAtK(gist, result.value().results, 5), 0.7);
}

}  // namespace
}  // namespace dhnsw
