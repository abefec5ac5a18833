#include "core/compute_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/sim_clock.h"
#include "core/engine.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "rdma/queue_pair.h"

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

// --- Freshness of cached clusters across a torn insert window ------------

/// Claims one record's slot in `cluster`'s overflow with a raw FAA on the
/// region's counter, as a writing node's AppendRecords does before its WRITE
/// lands. Returns the claimed position (the counter's old value).
uint64_t ClaimSlot(rdma::QueuePair& qp, const DhnswEngine& engine, uint32_t cluster,
                   uint64_t bytes) {
  const LayoutPlan& plan = engine.memory_node()->plan();
  const uint64_t counter = plan.header.table_offset +
                           uint64_t{cluster} * ClusterMeta::kEncodedSize +
                           ClusterMeta::kUsedFieldOffset;
  auto old = qp.FetchAdd(engine.memory_handle().rkey_for_slot(0), counter, bytes);
  EXPECT_TRUE(old.ok()) << old.status().ToString();
  return old.ok() ? old.value() : 0;
}

bool Returns(const std::vector<Scored>& found, uint32_t id) {
  return std::any_of(found.begin(), found.end(), [id](const Scored& s) { return s.id == id; });
}

TEST(ComputeNodeFreshnessTest, CopyReadBeforeAClaimedSlotIsWrittenIsReloaded) {
  // A node that loads a cluster between another writer's FAA and its WRITE
  // reads the claimed slot as uncommitted and skips it. The table's counter
  // already covers that slot, so unless the copy remembers where its
  // committed records end, no later refresh sees a change and the node
  // keeps serving a copy without the acked insert (and, below, without the
  // acked tombstone).
  Dataset ds = MakeSynthetic({.dim = 8, .num_base = 800, .num_queries = 1,
                              .num_clusters = 5, .seed = 64});
  DhnswConfig config = DhnswConfig::Defaults();
  config.transport = rdma::TransportOptions::Sim();
  config.meta.num_representatives = 5;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 40};
  config.layout.overflow_bytes_per_group = 8192;
  config.compute.cache_capacity = 8;
  config.num_compute_nodes = 2;
  auto built = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DhnswEngine& engine = built.value();
  ComputeNode& node_b = engine.compute(1);

  constexpr uint32_t kId = 900100;
  const std::vector<float> v(8, 300.0f);
  VectorSet probe(8);
  probe.Append(v);
  const uint32_t cluster = node_b.meta().RouteOne(v);
  const ClusterMeta& meta = engine.memory_node()->plan().entries[cluster];
  const rdma::RKey record_rkey = engine.memory_handle().rkey_for_slot(meta.node_slot);
  SimClock clock;
  rdma::QueuePair writer(&engine.fabric(), &clock);
  std::vector<uint8_t> record(meta.record_size);

  // Insert: claim, let node B cache the cluster, then commit the record.
  EncodeOverflowRecord(kId, v, record);
  uint64_t slot = ClaimSlot(writer, engine, cluster, record.size());
  auto torn = node_b.SearchAll(probe, 3, 32);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  ASSERT_TRUE(node_b.IsCached(cluster));
  EXPECT_FALSE(Returns(torn.value().results[0], kId));
  ASSERT_TRUE(writer.Write(record_rkey, meta.RecordOffset(slot), record).ok());
  auto inserted = node_b.SearchAll(probe, 3, 32);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_FALSE(inserted.value().results[0].empty());
  EXPECT_EQ(inserted.value().results[0][0].id, kId);
  EXPECT_EQ(inserted.value().results[0][0].distance, 0.0f);

  // Tombstone: the same window must not keep the deleted id alive.
  EncodeOverflowTombstone(kId, 8, record);
  slot = ClaimSlot(writer, engine, cluster, record.size());
  auto torn_delete = node_b.SearchAll(probe, 3, 32);
  ASSERT_TRUE(torn_delete.ok()) << torn_delete.status().ToString();
  ASSERT_TRUE(node_b.IsCached(cluster));
  EXPECT_TRUE(Returns(torn_delete.value().results[0], kId));
  ASSERT_TRUE(writer.Write(record_rkey, meta.RecordOffset(slot), record).ok());
  auto removed = node_b.SearchAll(probe, 3, 32);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_FALSE(Returns(removed.value().results[0], kId));
}

// --- The scan path: same answers however the work is split ----------------

/// A corpus whose partitions straddle kAuto's threshold at the suite's ef
/// (kAutoScanRowsPerEf x kEf rows), with one overflow
/// insert and one tombstone resident, so the default mode both scans and
/// walks, and scans fold overflow records and skip a deleted row.
class ComputeNodeScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(MakeSynthetic({.dim = 8, .num_base = 7000, .num_queries = 48,
                                     .num_clusters = 9, .seed = 65}));
    DhnswConfig config = DhnswConfig::Defaults();
    config.meta.num_representatives = 9;
    config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 40};
    config.layout.overflow_bytes_per_group = 8192;
    auto engine = DhnswEngine::Build(ds_->base, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = new DhnswEngine(std::move(engine).value());
    // The insert lands next to query 0 and the tombstone deletes the base
    // row nearest query 1, so both are among the answers that matter.
    std::vector<float> near(ds_->queries[0].begin(), ds_->queries[0].end());
    near[0] += 0.01f;
    ASSERT_TRUE(engine_->Insert(near).ok());
    uint32_t nearest = 0;
    for (uint32_t i = 1; i < ds_->base.size(); ++i) {
      if (L2Sq(ds_->base[i], ds_->queries[1]) < L2Sq(ds_->base[nearest], ds_->queries[1])) {
        nearest = i;
      }
    }
    ASSERT_TRUE(engine_->Remove(ds_->base[nearest], nearest).ok());
    deleted_ = nearest;
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete ds_;
    engine_ = nullptr;
    ds_ = nullptr;
  }

  static ComputeOptions Options(SubSearchMode mode, size_t threads, uint32_t depth) {
    ComputeOptions options;
    options.clusters_per_query = 3;
    options.cache_capacity = 3;  // several waves per batch
    options.search_threads = threads;
    options.pipeline_depth = depth;
    options.sub_search = mode;
    return options;
  }

  /// The whole query set as one batch, or as one single-query call each.
  static std::vector<std::vector<Scored>> Search(const ComputeOptions& options, bool batched) {
    ComputeNode node(&engine_->fabric(), engine_->memory_handle(), options);
    EXPECT_TRUE(node.Connect().ok());
    if (batched) {
      auto result = node.SearchAll(ds_->queries, 10, kEf);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return result.ok() ? result.value().results : std::vector<std::vector<Scored>>{};
    }
    std::vector<std::vector<Scored>> out;
    for (size_t i = 0; i < ds_->queries.size(); ++i) {
      auto result = node.SearchBatch(ds_->queries, i, 1, 10, kEf);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) return {};
      out.push_back(result.value().results[0]);
    }
    return out;
  }

  static void ExpectSame(const std::vector<std::vector<Scored>>& a,
                         const std::vector<std::vector<Scored>>& b, const std::string& what) {
    ASSERT_EQ(a.size(), ds_->queries.size()) << what;
    ASSERT_EQ(b.size(), a.size()) << what;
    for (size_t qi = 0; qi < a.size(); ++qi) {
      ASSERT_EQ(a[qi].size(), b[qi].size()) << what << " query " << qi;
      for (size_t j = 0; j < a[qi].size(); ++j) {
        EXPECT_EQ(a[qi][j].id, b[qi][j].id) << what << " query " << qi << " rank " << j;
        EXPECT_EQ(a[qi][j].distance, b[qi][j].distance) << what << " query " << qi;
      }
    }
  }

  static constexpr uint32_t kEf = 16;
  static Dataset* ds_;
  static DhnswEngine* engine_;
  static uint32_t deleted_;
};

Dataset* ComputeNodeScanTest::ds_ = nullptr;
DhnswEngine* ComputeNodeScanTest::engine_ = nullptr;
uint32_t ComputeNodeScanTest::deleted_ = 0;

TEST_F(ComputeNodeScanTest, BatchEqualsSingleQueryCallsAtEveryThreadCountAndDepth) {
  // The fixture's premise: the default mode both scans and walks here.
  const auto& sizes = engine_->partition_sizes();
  const uint32_t threshold = kAutoScanRowsPerEf * kEf;
  ASSERT_TRUE(std::any_of(sizes.begin(), sizes.end(),
                          [threshold](uint32_t n) { return n <= threshold; }));
  ASSERT_TRUE(std::any_of(sizes.begin(), sizes.end(),
                          [threshold](uint32_t n) { return n > threshold; }));
  ASSERT_EQ(ComputeOptions{}.sub_search, SubSearchMode::kAuto);

  const uint32_t inserted = static_cast<uint32_t>(ds_->base.size());
  for (SubSearchMode mode : {SubSearchMode::kAuto, SubSearchMode::kFlatScan}) {
    const std::string name = mode == SubSearchMode::kAuto ? "auto" : "flat";
    const auto want = Search(Options(mode, 1, 1), /*batched=*/false);
    // Overflow records are scanned exactly in every mode: query 0 finds the
    // insert next to it, and no query returns the deleted row.
    ASSERT_EQ(want.size(), ds_->queries.size()) << name;
    ASSERT_FALSE(want[0].empty()) << name;
    EXPECT_EQ(want[0][0].id, inserted) << name;
    for (const auto& found : want) EXPECT_FALSE(Returns(found, deleted_)) << name;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (uint32_t depth : {1u, 2u}) {
        const std::string what = name + " threads=" + std::to_string(threads) +
                                 " depth=" + std::to_string(depth);
        ExpectSame(want, Search(Options(mode, threads, depth), true), what + " batch");
        ExpectSame(want, Search(Options(mode, threads, depth), false), what + " single");
      }
    }
  }
}

}  // namespace
}  // namespace dhnsw
