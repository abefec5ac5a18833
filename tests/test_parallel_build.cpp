// Parallel bulk-build suite: level-sequence parity, sequential-fallback graph
// identity, recall parity of batch-parallel insertion, shrink stress under
// small degree caps, deterministic-mode byte identity across thread counts
// (engine + provision), and the DHNSW_DETERMINISTIC_BUILD env gate.
//
// Run under TSan (the CI build-parallel job does) these tests double as the
// data-race check for the per-node locking discipline.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/memory_node.h"
#include "core/meta_hnsw.h"
#include "core/partitioner.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "index/hnsw.h"

namespace dhnsw {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

std::vector<float> FlatRows(const VectorSet& set) {
  return std::vector<float>(set.flat().begin(), set.flat().end());
}

TEST(ParallelBuildTest, BatchLevelSequenceMatchesSequentialDraw) {
  const Dataset ds = MakeSynthetic({.dim = 8, .num_base = 1500, .num_queries = 1,
                                    .num_clusters = 10, .seed = 11});
  const HnswOptions options{.M = 8, .ef_construction = 40, .seed = 99};

  HnswIndex sequential(8, options);
  for (size_t i = 0; i < ds.base.size(); ++i) sequential.Add(ds.base[i]);

  ThreadPool pool(8);
  HnswIndex parallel(8, options);
  const std::vector<float> rows = FlatRows(ds.base);
  parallel.AddBatchParallel(rows, ds.base.size(), &pool);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (uint32_t id = 0; id < parallel.size(); ++id) {
    ASSERT_EQ(parallel.level(id), sequential.level(id)) << "id " << id;
  }
  EXPECT_TRUE(parallel.Validate().ok()) << parallel.Validate().ToString();
}

TEST(ParallelBuildTest, NullPoolFallbackReproducesSequentialGraphExactly) {
  const Dataset ds = MakeSynthetic({.dim = 8, .num_base = 600, .num_queries = 1,
                                    .num_clusters = 6, .seed = 12});
  const HnswOptions options{.M = 6, .ef_construction = 30, .seed = 7};

  HnswIndex sequential(8, options);
  for (size_t i = 0; i < ds.base.size(); ++i) sequential.Add(ds.base[i]);

  HnswIndex fallback(8, options);
  const std::vector<float> rows = FlatRows(ds.base);
  fallback.AddBatchParallel(rows, ds.base.size(), nullptr);

  ASSERT_EQ(fallback.size(), sequential.size());
  EXPECT_EQ(fallback.entry_point(), sequential.entry_point());
  for (uint32_t id = 0; id < fallback.size(); ++id) {
    ASSERT_EQ(fallback.level(id), sequential.level(id));
    for (uint32_t layer = 0; layer <= fallback.level(id); ++layer) {
      const auto a = fallback.neighbors(id, layer);
      const auto b = sequential.neighbors(id, layer);
      ASSERT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
                std::vector<uint32_t>(b.begin(), b.end()))
          << "id " << id << " layer " << layer;
    }
  }
}

TEST(ParallelBuildTest, BatchParallelRecallParityWithSequential) {
  Dataset ds = MakeSynthetic({.dim = 16, .num_base = 2000, .num_queries = 40,
                              .num_clusters = 12, .seed = 13});
  ComputeGroundTruth(&ds, 10);
  const HnswOptions options{.M = 16, .ef_construction = 200, .seed = 5};

  HnswIndex sequential(16, options);
  for (size_t i = 0; i < ds.base.size(); ++i) sequential.Add(ds.base[i]);

  ThreadPool pool(8);
  HnswIndex parallel(16, options);
  const std::vector<float> rows = FlatRows(ds.base);
  parallel.AddBatchParallel(rows, ds.base.size(), &pool);
  ASSERT_TRUE(parallel.Validate().ok()) << parallel.Validate().ToString();

  // Generous ef so both graphs saturate; parity is the claim, not a race.
  auto mean_recall = [&](const HnswIndex& index) {
    double sum = 0.0;
    for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
      const auto found = index.Search(ds.queries[qi], 10, 200);
      sum += RecallAtK(found, ds.GroundTruthFor(qi), 10);
    }
    return sum / static_cast<double>(ds.queries.size());
  };
  const double seq = mean_recall(sequential);
  const double par = mean_recall(parallel);
  EXPECT_GT(seq, 0.95);
  EXPECT_GT(par, 0.95);
  EXPECT_NEAR(seq, par, 0.03);
}

TEST(ParallelBuildTest, ShrinkStressSmallDegreeCapStaysValid) {
  // M = 4 makes every layer-0 list overflow constantly, hammering the
  // back-link shrink path from 8 threads at once.
  const Dataset ds = MakeSynthetic({.dim = 8, .num_base = 3000, .num_queries = 5,
                                    .num_clusters = 20, .seed = 14});
  ThreadPool pool(8);
  HnswIndex index(8, HnswOptions{.M = 4, .ef_construction = 30, .seed = 3});
  const std::vector<float> rows = FlatRows(ds.base);
  index.AddBatchParallel(rows, ds.base.size(), &pool);

  ASSERT_TRUE(index.Validate().ok()) << index.Validate().ToString();
  // The graph must still answer queries (no orphaned entry point etc.).
  for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
    EXPECT_EQ(index.Search(ds.queries[qi], 10, 64).size(), 10u);
  }
}

DhnswConfig ParallelConfig() {
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 16;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 50};
  config.compute.clusters_per_query = 4;
  config.transport.kind = rdma::TransportKind::kSim;
  return config;
}

TEST(ParallelBuildTest, DeterministicModeSnapshotBytesIdenticalAcrossThreadCounts) {
  const Dataset ds = MakeSynthetic({.dim = 16, .num_base = 2000, .num_queries = 5,
                                    .num_clusters = 10, .seed = 15});
  auto snapshot_with = [&](size_t threads, const char* name) {
    DhnswConfig config = ParallelConfig();
    config.build_threads = threads;
    config.deterministic_build = true;
    auto engine = DhnswEngine::Build(ds.base, config);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    const std::string path = TempPath(name);
    EXPECT_TRUE(engine.value().SaveSnapshot(path).ok());
    auto bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  };
  const auto t1 = snapshot_with(1, "det_t1.dsnp");
  const auto t2 = snapshot_with(2, "det_t2.dsnp");
  const auto t8 = snapshot_with(8, "det_t8.dsnp");
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ParallelBuildTest, DeterministicEnvVarForcesReproducibleBuild) {
  const Dataset ds = MakeSynthetic({.dim = 16, .num_base = 1500, .num_queries = 5,
                                    .num_clusters = 8, .seed = 16});
  auto snapshot = [&](DhnswConfig config, const char* name) {
    auto engine = DhnswEngine::Build(ds.base, config);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    const std::string path = TempPath(name);
    EXPECT_TRUE(engine.value().SaveSnapshot(path).ok());
    auto bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  };

  DhnswConfig reference = ParallelConfig();
  reference.build_threads = 1;
  reference.deterministic_build = true;
  const auto expected = snapshot(reference, "env_ref.dsnp");

  // 8 threads, few partitions: without the gate this takes the intra-graph
  // (nondeterministic) path; the env var must force it back to sequential.
  DhnswConfig gated = ParallelConfig();
  gated.meta.num_representatives = 4;
  gated.build_threads = 8;
  gated.deterministic_build = false;
  DhnswConfig gated_ref = gated;
  gated_ref.build_threads = 1;
  gated_ref.deterministic_build = true;

  ::setenv("DHNSW_DETERMINISTIC_BUILD", "1", 1);
  const auto gated_bytes = snapshot(gated, "env_gated.dsnp");
  ::unsetenv("DHNSW_DETERMINISTIC_BUILD");
  const auto gated_expected = snapshot(gated_ref, "env_gated_ref.dsnp");

  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(gated_bytes, gated_expected);
}

TEST(ParallelBuildTest, FastModeEngineRecallParity) {
  // 4 partitions, 8 build threads: the partitioner takes the intra-graph
  // batch-parallel path. Fast mode must match the deterministic build's
  // recall (the documented parity claim), not its bytes.
  Dataset ds = MakeSynthetic({.dim = 16, .num_base = 3000, .num_queries = 40,
                              .num_clusters = 10, .seed = 17});
  ComputeGroundTruth(&ds, 10);

  auto recall_with = [&](bool deterministic) {
    DhnswConfig config = ParallelConfig();
    config.meta.num_representatives = 4;
    config.compute.clusters_per_query = 3;
    config.sub_hnsw = HnswOptions{.M = 16, .ef_construction = 150};
    config.build_threads = 8;
    config.deterministic_build = deterministic;
    auto engine = DhnswEngine::Build(ds.base, config);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    auto result = engine.value().SearchAll(ds.queries, 10, 150);
    EXPECT_TRUE(result.ok());
    return MeanRecallAtK(ds, result.value().results, 10);
  };
  const double det = recall_with(true);
  const double fast = recall_with(false);
  EXPECT_GT(det, 0.9);
  EXPECT_GT(fast, 0.9);
  EXPECT_NEAR(det, fast, 0.03);
}

TEST(ParallelBuildTest, ProvisionParallelEncodeBytesMatchSequential) {
  const Dataset ds = MakeSynthetic({.dim = 16, .num_base = 1200, .num_queries = 2,
                                    .num_clusters = 8, .seed = 18});
  MetaHnswOptions mopts;
  mopts.num_representatives = 12;
  auto meta = MetaHnsw::Build(ds.base, mopts);
  ASSERT_TRUE(meta.ok());
  PartitionerOptions popts;
  popts.sub_hnsw = HnswOptions{.M = 6, .ef_construction = 30};
  auto parts = PartitionDataset(ds.base, meta.value(), popts);
  ASSERT_TRUE(parts.ok());

  auto provision_bytes = [&](size_t encode_threads) {
    rdma::Fabric fabric;
    MemoryNode node(&fabric);
    LayoutConfig layout;
    layout.overflow_bytes_per_group = 4096;
    Status st = node.Provision(meta.value(), parts.value().clusters, layout,
                               /*layout_version=*/0, /*num_shards=*/2, encode_threads);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::vector<char> all;
    for (uint32_t s = 0; s < node.handle().num_shards(); ++s) {
      rdma::MemoryRegion* region = fabric.FindRegion(node.handle().rkey_for_slot(s));
      EXPECT_NE(region, nullptr);
      const auto span = region->host_span();
      all.insert(all.end(), span.begin(), span.end());
    }
    return all;
  };
  const auto seq = provision_bytes(1);
  const auto par = provision_bytes(4);
  ASSERT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace dhnsw
