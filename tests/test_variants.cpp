// Variant knobs: k-means representative selection and flat-scan sub-search.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/engine.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"

namespace dhnsw {
namespace {

Dataset Clustered() {
  return MakeSynthetic({.dim = 8, .num_base = 2000, .num_queries = 30,
                        .num_clusters = 10, .seed = 211});
}

TEST(KmeansSelectionTest, ProducesDistinctRealDataPoints) {
  Dataset ds = Clustered();
  MetaHnswOptions options;
  options.num_representatives = 20;
  options.selection = RepresentativeSelection::kKmeans;
  options.kmeans_iterations = 5;
  auto meta = MetaHnsw::Build(ds.base, options);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().num_partitions(), 20u);

  std::set<uint32_t> ids;
  for (uint32_t p = 0; p < 20; ++p) {
    const uint32_t gid = meta.value().representative_global_id(p);
    ASSERT_LT(gid, ds.base.size());
    EXPECT_TRUE(ids.insert(gid).second) << "duplicate representative " << gid;
    // Medoid snap: the stored meta vector IS the base row.
    const auto stored = meta.value().index().vector(p);
    for (uint32_t d = 0; d < 8; ++d) ASSERT_FLOAT_EQ(stored[d], ds.base[gid][d]);
  }
}

TEST(KmeansSelectionTest, BalancesPartitionsBetterThanUniform) {
  Dataset ds = Clustered();
  auto balance = [&](RepresentativeSelection selection) {
    DhnswConfig config = DhnswConfig::Defaults();
    config.meta.num_representatives = 16;
    config.meta.selection = selection;
    config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 40};
    auto engine = DhnswEngine::Build(ds.base, config);
    EXPECT_TRUE(engine.ok());
    // Coefficient of variation of partition sizes: lower == more balanced.
    const auto& sizes = engine.value().partition_sizes();
    double mean = 0;
    for (uint32_t s : sizes) mean += s;
    mean /= static_cast<double>(sizes.size());
    double var = 0;
    for (uint32_t s : sizes) var += (s - mean) * (s - mean);
    var /= static_cast<double>(sizes.size());
    return std::sqrt(var) / mean;
  };
  const double cv_uniform = balance(RepresentativeSelection::kUniformSample);
  const double cv_kmeans = balance(RepresentativeSelection::kKmeans);
  EXPECT_LT(cv_kmeans, cv_uniform)
      << "kmeans CV " << cv_kmeans << " vs uniform CV " << cv_uniform;
}

TEST(KmeansSelectionTest, EndToEndRecallAtLeastComparable) {
  Dataset ds = Clustered();
  ComputeGroundTruth(&ds, 10);
  auto recall_with = [&](RepresentativeSelection selection) {
    DhnswConfig config = DhnswConfig::Defaults();
    config.meta.num_representatives = 16;
    config.meta.selection = selection;
    config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 50};
    config.compute.clusters_per_query = 4;
    auto engine = DhnswEngine::Build(ds.base, config);
    EXPECT_TRUE(engine.ok());
    auto result = engine.value().SearchAll(ds.queries, 10, 64);
    EXPECT_TRUE(result.ok());
    return MeanRecallAtK(ds, result.value().results, 10);
  };
  const double uniform = recall_with(RepresentativeSelection::kUniformSample);
  const double kmeans = recall_with(RepresentativeSelection::kKmeans);
  EXPECT_GT(kmeans, uniform - 0.05);
  EXPECT_GT(kmeans, 0.75);
}

TEST(FlatSubSearchTest, MatchesGraphModeWithGenerousEf) {
  Dataset ds = Clustered();
  DhnswConfig graph_config = DhnswConfig::Defaults();
  graph_config.meta.num_representatives = 12;
  graph_config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 60};
  graph_config.compute.clusters_per_query = 3;
  graph_config.compute.sub_search = SubSearchMode::kGraph;
  DhnswConfig flat_config = graph_config;
  flat_config.compute.sub_search = SubSearchMode::kFlatScan;

  auto graph = DhnswEngine::Build(ds.base, graph_config);
  auto flat = DhnswEngine::Build(ds.base, flat_config);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(flat.ok());

  // Flat scan is exact within routed partitions; graph with huge ef too.
  auto r_graph = graph.value().SearchAll(ds.queries, 10, 500);
  auto r_flat = flat.value().SearchAll(ds.queries, 10, 1);  // ef ignored
  ASSERT_TRUE(r_graph.ok());
  ASSERT_TRUE(r_flat.ok());
  for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
    const auto& a = r_graph.value().results[qi];
    const auto& b = r_flat.value().results[qi];
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id) << "query " << qi << " rank " << j;
    }
  }
}

TEST(FlatSubSearchTest, SeesInsertsAndRespectsTombstones) {
  Dataset ds = Clustered();
  DhnswConfig config = DhnswConfig::Defaults();
  config.meta.num_representatives = 10;
  config.sub_hnsw = HnswOptions{.M = 8, .ef_construction = 40};
  config.compute.clusters_per_query = 3;
  config.compute.sub_search = SubSearchMode::kFlatScan;
  config.layout.overflow_bytes_per_group = 1 << 15;
  auto engine = DhnswEngine::Build(ds.base, config);
  ASSERT_TRUE(engine.ok());

  std::vector<float> outlier(8, 900.0f);
  auto id = engine.value().Insert(outlier);
  ASSERT_TRUE(id.ok());
  VectorSet probe(8);
  probe.Append(outlier);
  auto found = engine.value().SearchAll(probe, 1, 1);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().results[0][0].id, id.value());

  ASSERT_TRUE(engine.value().Remove(outlier, id.value()).ok());
  auto gone = engine.value().SearchAll(probe, 3, 1);
  ASSERT_TRUE(gone.ok());
  for (const Scored& s : gone.value().results[0]) EXPECT_NE(s.id, id.value());
}

}  // namespace
}  // namespace dhnsw
