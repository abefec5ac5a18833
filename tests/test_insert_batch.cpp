// Batched insertion (coalesced FAA + doorbell-batched WRITEs).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "rdma/fault_injection.h"
#include "telemetry/metrics.h"

namespace dhnsw {
namespace {

DhnswConfig SmallConfig(uint64_t overflow = 1 << 16) {
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 10;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 40};
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 4;
  config.layout.overflow_bytes_per_group = overflow;
  return config;
}

Dataset SmallData() {
  return MakeSynthetic({.dim = 8, .num_base = 900, .num_queries = 10,
                        .num_clusters = 6, .seed = 141});
}

VectorSet MakeBatch(const Dataset& ds, size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  VectorSet batch(8);
  for (size_t i = 0; i < n; ++i) {
    const size_t src = rng.NextBounded(ds.base.size());
    std::vector<float> v(ds.base[src].begin(), ds.base[src].end());
    v[0] += 0.1f;
    batch.Append(v);
  }
  return batch;
}

TEST(InsertBatchTest, AllVectorsRetrievable) {
  Dataset ds = SmallData();
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());

  const VectorSet batch = MakeBatch(ds, 50, 1);
  std::vector<size_t> rejected;
  auto first_id = engine.value().InsertBatch(batch, &rejected);
  ASSERT_TRUE(first_id.ok()) << first_id.status().ToString();
  EXPECT_EQ(first_id.value(), ds.base.size());
  EXPECT_TRUE(rejected.empty());

  auto result = engine.value().SearchAll(batch, 1, 48);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_FALSE(result.value().results[i].empty());
    EXPECT_LT(result.value().results[i][0].distance, 1e-3f) << "row " << i;
  }
}

TEST(InsertBatchTest, FewerRoundTripsThanSingleInserts) {
  Dataset ds = SmallData();
  auto batch_engine = DhnswEngine::Build(ds.base, SmallConfig());
  auto single_engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(batch_engine.ok());
  ASSERT_TRUE(single_engine.ok());

  const VectorSet batch = MakeBatch(ds, 60, 2);

  const auto before_batch = batch_engine.value().compute(0).qp_stats();
  ASSERT_TRUE(batch_engine.value().InsertBatch(batch).ok());
  const auto rt_batch =
      (batch_engine.value().compute(0).qp_stats() - before_batch).round_trips;

  const auto before_single = single_engine.value().compute(0).qp_stats();
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(single_engine.value().Insert(batch[i]).ok());
  }
  const auto rt_single =
      (single_engine.value().compute(0).qp_stats() - before_single).round_trips;

  EXPECT_EQ(rt_single, 2 * batch.size());  // 2 rings per vector
  EXPECT_LT(rt_batch, rt_single / 2);      // ~2 rings per touched partition
}

TEST(InsertBatchTest, MatchesSingleInsertResults) {
  Dataset ds = SmallData();
  auto a = DhnswEngine::Build(ds.base, SmallConfig());
  auto b = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const VectorSet batch = MakeBatch(ds, 40, 3);
  ASSERT_TRUE(a.value().InsertBatch(batch).ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(b.value().Insert(batch[i]).ok());
  }

  auto ra = a.value().SearchAll(ds.queries, 10, 48);
  auto rb = b.value().SearchAll(ds.queries, 10, 48);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
    ASSERT_EQ(ra.value().results[qi].size(), rb.value().results[qi].size());
    for (size_t j = 0; j < ra.value().results[qi].size(); ++j) {
      EXPECT_EQ(ra.value().results[qi][j].id, rb.value().results[qi][j].id);
    }
  }
}

TEST(InsertBatchTest, PartitionOverflowRejectsOnlyThatGroup) {
  Dataset ds = SmallData();
  // Room for ~4 records per group (8-dim record = 40 B).
  auto engine = DhnswEngine::Build(ds.base, SmallConfig(/*overflow=*/160));
  ASSERT_TRUE(engine.ok());

  // 30 copies of one vector all route to one partition: group too large.
  VectorSet same(8);
  for (int i = 0; i < 30; ++i) same.Append(ds.base[0]);
  std::vector<size_t> rejected;
  auto first_id = engine.value().InsertBatch(same, &rejected);
  ASSERT_TRUE(first_id.ok());
  EXPECT_EQ(rejected.size(), 30u);  // whole group rejected atomically

  // A small group still fits afterwards (rollback restored the budget).
  VectorSet few(8);
  few.Append(ds.base[0]);
  few.Append(ds.base[0]);
  std::vector<size_t> rejected2;
  ASSERT_TRUE(engine.value().InsertBatch(few, &rejected2).ok());
  EXPECT_TRUE(rejected2.empty());
}

TEST(InsertBatchTest, SizeMismatchRejected) {
  Dataset ds = SmallData();
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());
  VectorSet batch(8);
  batch.Append(std::vector<float>(8, 1.0f));
  const uint32_t ids[2] = {1, 2};
  EXPECT_FALSE(engine.value().compute(0).InsertBatch(batch, ids).ok());
}

TEST(InsertBatchTest, EmptyBatchIsNoop) {
  Dataset ds = SmallData();
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());
  VectorSet empty(8);
  auto result = engine.value().InsertBatch(empty);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(engine.value().next_global_id(), ds.base.size());
}

TEST(InsertBatchTest, FailedBatchStillConsumesItsIds) {
  Dataset ds = SmallData();
  auto engine = DhnswEngine::Build(ds.base, SmallConfig());
  ASSERT_TRUE(engine.ok());
  DhnswEngine& e = engine.value();

  // Three WRITEs land, then every WRITE fails for good: the groups written
  // before the fault stay stored while the call itself fails.
  rdma::FaultRule write_fault;
  write_fault.opcode = rdma::Opcode::kWrite;
  write_fault.skip_first = 3;
  ASSERT_TRUE(e.fabric().ArmFaults(rdma::FaultPlan(5).Add(write_fault)).ok());
  const VectorSet batch = MakeBatch(ds, 40, 6);
  const uint32_t first_id = e.next_global_id();
  ASSERT_FALSE(e.InsertBatch(batch).ok());
  e.fabric().ClearFaults();
  EXPECT_EQ(e.next_global_id(), first_id + batch.size());

  e.compute(0).InvalidateCache();
  auto found = e.SearchAll(batch, 1, 48);
  ASSERT_TRUE(found.ok());
  size_t stored = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<Scored>& top = found.value().results[i];
    if (!top.empty() && top[0].id == first_id + i) ++stored;
  }
  ASSERT_GT(stored, 0u) << "no group was stored before the fault; test proves nothing";

  // The next insert gets an id no stored row holds.
  auto next = e.Insert(ds.base[0]);
  ASSERT_TRUE(next.ok());
  EXPECT_GE(next.value(), first_id + batch.size());
}

TEST(InsertBatchTest, RefusedInsertsCountOncePerRecord) {
  Dataset ds = SmallData();
  // Room for ~4 records per group (8-dim record = 40 B).
  auto engine = DhnswEngine::Build(ds.base, SmallConfig(/*overflow=*/160));
  ASSERT_TRUE(engine.ok());
  DhnswEngine& e = engine.value();
  telemetry::Counter* rejects =
      telemetry::DefaultRegistry().GetCounter("dhnsw_compute_insert_rejects_total");

  // Single inserts of one vector fill its group, then get refused.
  uint64_t before = rejects->value();
  uint64_t refused = 0;
  for (int i = 0; i < 12; ++i) {
    auto id = e.Insert(ds.base[0]);
    if (!id.ok()) {
      ASSERT_EQ(id.status().code(), StatusCode::kCapacity) << id.status().ToString();
      ++refused;
    }
  }
  ASSERT_GT(refused, 0u);
  EXPECT_EQ(rejects->value() - before, refused);

  // A refused tombstone is not a refused insert.
  before = rejects->value();
  EXPECT_EQ(e.Remove(ds.base[0], 0).code(), StatusCode::kCapacity);
  EXPECT_EQ(rejects->value(), before);

  // Batched refusals count every row of the refused group.
  VectorSet same(8);
  for (int i = 0; i < 5; ++i) same.Append(ds.base[0]);
  std::vector<size_t> rejected;
  ASSERT_TRUE(e.InsertBatch(same, &rejected).ok());
  EXPECT_EQ(rejected.size(), same.size());
  EXPECT_EQ(rejects->value() - before, same.size());
}

TEST(InsertBatchTest, WorksOnShardedPool) {
  Dataset ds = SmallData();
  DhnswConfig config = SmallConfig();
  config.num_memory_nodes = 3;
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(engine.ok());

  const VectorSet batch = MakeBatch(ds, 30, 4);
  std::vector<size_t> rejected;
  ASSERT_TRUE(engine.value().InsertBatch(batch, &rejected).ok());
  EXPECT_TRUE(rejected.empty());

  auto result = engine.value().SearchAll(batch, 1, 48);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_LT(result.value().results[i][0].distance, 1e-3f);
  }
}

}  // namespace
}  // namespace dhnsw
