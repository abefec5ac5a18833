// Oracle equivalence: d-HNSW's answer decomposes into (a) routing loss —
// the true neighbors living outside the b routed partitions — and (b) graph
// loss — the sub-HNSW search missing vectors inside them. With a generous
// efSearch, (b) must vanish: for every query, the engine's top-k must equal
// the EXACT top-k over the union of its routed partitions.
//
// This is the strongest end-to-end functional property of the system: it
// pins the entire pipeline (meta routing, layout, RDMA loads, blob decode,
// per-cluster search, cross-cluster merge) against a brute-force oracle.
// It runs under the default sub-search mode (exact scans of small
// partitions, graph walks of large ones) and under the paper's graph walk
// everywhere.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "index/flat_index.h"

namespace dhnsw {
namespace {

/// One oracle run: the corpus seed and the sub-search mode. The default
/// mode prints as the bare seed, the graph walk as "<seed>/graph".
struct OracleCase {
  uint64_t seed;
  SubSearchMode mode;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.seed << (c.mode == SubSearchMode::kGraph ? "/graph" : "");
}

class OracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleTest, TopKEqualsExactSearchOverRoutedPartitions) {
  Dataset ds = MakeSynthetic({.dim = 12, .num_base = 2500, .num_queries = 30,
                              .num_clusters = 10, .seed = GetParam().seed});

  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 25;
  config.sub_hnsw = HnswOptions{.M = 12, .ef_construction = 100};
  config.compute.clusters_per_query = 4;
  config.compute.cache_capacity = 8;
  config.compute.sub_search = GetParam().mode;
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(engine.ok());
  ComputeNode& node = engine.value().compute(0);

  // Partition assignment exactly as the build pipeline derived it.
  std::vector<uint32_t> assignment(ds.base.size());
  for (size_t i = 0; i < ds.base.size(); ++i) {
    assignment[i] = node.meta().RouteOne(ds.base[i]);
  }

  constexpr size_t kK = 10;
  // Generous ef: sub-HNSW searches become exhaustive on partition scale.
  auto result = node.SearchAll(ds.queries, kK, /*ef_search=*/500);
  ASSERT_TRUE(result.ok());

  for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
    const std::vector<uint32_t> routed =
        node.meta().RouteMany(ds.queries[qi], config.compute.clusters_per_query);
    const std::set<uint32_t> routed_set(routed.begin(), routed.end());

    // Oracle: exact scan over members of the routed partitions.
    TopKHeap oracle(kK);
    for (uint32_t gid = 0; gid < ds.base.size(); ++gid) {
      if (routed_set.count(assignment[gid])) {
        oracle.Push(L2Sq(ds.base[gid], ds.queries[qi]), gid);
      }
    }
    const std::vector<Scored> want = oracle.TakeSorted();
    const std::vector<Scored>& got = result.value().results[qi];

    ASSERT_EQ(got.size(), want.size()) << "query " << qi;
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].id, want[j].id) << "query " << qi << " rank " << j;
      EXPECT_FLOAT_EQ(got[j].distance, want[j].distance) << "query " << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OracleTest,
    ::testing::Values(OracleCase{11, ComputeOptions{}.sub_search},
                      OracleCase{22, ComputeOptions{}.sub_search},
                      OracleCase{33, ComputeOptions{}.sub_search},
                      OracleCase{11, SubSearchMode::kGraph}, OracleCase{22, SubSearchMode::kGraph},
                      OracleCase{33, SubSearchMode::kGraph}));

TEST(OracleTest, HoldsAfterInsertsToo) {
  Dataset ds = MakeSynthetic({.dim = 8, .num_base = 1200, .num_queries = 15,
                              .num_clusters = 6, .seed = 44});
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 12;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 60};
  config.compute.clusters_per_query = 3;
  config.compute.cache_capacity = 5;
  config.layout.overflow_bytes_per_group = 1 << 16;
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(engine.ok());
  ComputeNode& node = engine.value().compute(0);

  // Insert 60 vectors; track their assignment like the base ones.
  std::vector<std::vector<float>> all_vectors;
  std::vector<uint32_t> assignment;
  for (size_t i = 0; i < ds.base.size(); ++i) {
    all_vectors.emplace_back(ds.base[i].begin(), ds.base[i].end());
    assignment.push_back(node.meta().RouteOne(ds.base[i]));
  }
  Xoshiro256 rng(45);
  for (int i = 0; i < 60; ++i) {
    std::vector<float> v = all_vectors[rng.NextBounded(ds.base.size())];
    v[1] += 0.5f;
    auto id = engine.value().Insert(v);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(id.value(), all_vectors.size());
    assignment.push_back(node.meta().RouteOne(v));
    all_vectors.push_back(std::move(v));
  }

  constexpr size_t kK = 5;
  auto result = node.SearchAll(ds.queries, kK, 500);
  ASSERT_TRUE(result.ok());
  for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
    const auto routed = node.meta().RouteMany(ds.queries[qi], 3);
    const std::set<uint32_t> routed_set(routed.begin(), routed.end());
    TopKHeap oracle(kK);
    for (uint32_t gid = 0; gid < all_vectors.size(); ++gid) {
      if (routed_set.count(assignment[gid])) {
        oracle.Push(L2Sq(all_vectors[gid], ds.queries[qi]), gid);
      }
    }
    const auto want = oracle.TakeSorted();
    const auto& got = result.value().results[qi];
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].id, want[j].id) << "query " << qi << " rank " << j;
    }
  }
}

}  // namespace
}  // namespace dhnsw
