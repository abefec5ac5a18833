// Tombstone deletes (an extension over the paper's insert path; see
// serialize/overflow.h).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"

namespace dhnsw {
namespace {

DhnswConfig SmallConfig() {
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 12;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 50};
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 4;
  config.layout.overflow_bytes_per_group = 1 << 16;
  return config;
}

Dataset SmallData() {
  return MakeSynthetic({.dim = 8, .num_base = 1200, .num_queries = 20,
                        .num_clusters = 8, .seed = 91});
}

TEST(TombstoneTest, RemovedBaseVectorDisappearsFromResults) {
  Dataset ds = SmallData();
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());

  // Query for base row 5 exactly: it must be its own nearest neighbor.
  VectorSet probe(8);
  probe.Append(ds.base[5]);
  auto before = engine.value().SearchAll(probe, 1, 48);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().results[0][0].id, 5u);

  ASSERT_TRUE(engine.value().Remove(ds.base[5], 5).ok());

  auto after = engine.value().SearchAll(probe, 5, 48);
  ASSERT_TRUE(after.ok());
  for (const Scored& s : after.value().results[0]) {
    EXPECT_NE(s.id, 5u) << "deleted vector still returned";
  }
}

TEST(TombstoneTest, RemovedInsertDisappears) {
  Dataset ds = SmallData();
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());

  std::vector<float> outlier(8, 777.0f);
  auto id = engine.value().Insert(outlier);
  ASSERT_TRUE(id.ok());

  VectorSet probe(8);
  probe.Append(outlier);
  auto mid = engine.value().SearchAll(probe, 1, 32);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid.value().results[0][0].id, id.value());

  ASSERT_TRUE(engine.value().Remove(outlier, id.value()).ok());
  auto after = engine.value().SearchAll(probe, 3, 32);
  ASSERT_TRUE(after.ok());
  for (const Scored& s : after.value().results[0]) {
    EXPECT_NE(s.id, id.value());
  }
}

TEST(TombstoneTest, RemoveVisibleAcrossComputeNodes) {
  Dataset ds = SmallData();
  DhnswConfig config = SmallConfig();
  config.num_compute_nodes = 2;
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(engine.ok());

  ASSERT_TRUE(engine.value().compute(0).Remove(ds.base[7], 7).ok());

  VectorSet probe(8);
  probe.Append(ds.base[7]);
  auto result = engine.value().compute(1).SearchAll(probe, 5, 48);
  ASSERT_TRUE(result.ok());
  for (const Scored& s : result.value().results[0]) EXPECT_NE(s.id, 7u);
}

TEST(TombstoneTest, RecallUnaffectedForSurvivors) {
  Dataset ds = SmallData();
  ComputeGroundTruth(&ds, 5);
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());

  // Delete 20 vectors that are NOT ground-truth hits for any query.
  std::set<uint32_t> protected_ids;
  for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
    for (uint32_t gid : ds.GroundTruthFor(qi)) protected_ids.insert(gid);
  }
  uint32_t removed = 0;
  for (uint32_t gid = 0; gid < ds.base.size() && removed < 20; ++gid) {
    if (protected_ids.count(gid)) continue;
    ASSERT_TRUE(engine.value().Remove(ds.base[gid], gid).ok());
    ++removed;
  }

  auto result = engine.value().SearchAll(ds.queries, 5, 64);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(MeanRecallAtK(ds, result.value().results, 5), 0.8);
}

TEST(TombstoneTest, DoubleRemoveIsHarmless) {
  Dataset ds = SmallData();
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine.value().Remove(ds.base[3], 3).ok());
  EXPECT_TRUE(engine.value().Remove(ds.base[3], 3).ok());  // idempotent effect

  VectorSet probe(8);
  probe.Append(ds.base[3]);
  auto result = engine.value().SearchAll(probe, 5, 48);
  ASSERT_TRUE(result.ok());
  for (const Scored& s : result.value().results[0]) EXPECT_NE(s.id, 3u);
}

}  // namespace
}  // namespace dhnsw
