#include "index/hnsw.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "index/flat_index.h"

namespace dhnsw {
namespace {

std::vector<float> RandomVector(Xoshiro256& rng, uint32_t dim, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = (rng.NextFloat() - 0.5f) * scale;
  return v;
}

TEST(HnswTest, EmptyIndexSearchIsEmpty) {
  HnswIndex index(4);
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.Search(std::vector<float>{0, 0, 0, 0}, 3, 10).empty());
  EXPECT_TRUE(index.Validate().ok());
}

TEST(HnswTest, SingleElement) {
  HnswIndex index(2);
  EXPECT_EQ(index.Add(std::vector<float>{1.0f, 2.0f}), 0u);
  const auto top = index.Search(std::vector<float>{0.0f, 0.0f}, 1, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 0u);
  EXPECT_FLOAT_EQ(top[0].distance, 5.0f);
  EXPECT_TRUE(index.Validate().ok());
}

TEST(HnswTest, ExactOnTinySets) {
  // With efSearch >= n the search must be exact on small sets.
  Xoshiro256 rng(6);
  HnswIndex index(4);
  FlatIndex flat(4);
  for (int i = 0; i < 50; ++i) {
    const auto v = RandomVector(rng, 4);
    index.Add(v);
    flat.Add(v);
  }
  for (int t = 0; t < 20; ++t) {
    const auto q = RandomVector(rng, 4);
    const auto got = index.Search(q, 5, 64);
    const auto want = flat.Search(q, 5);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "trial " << t << " rank " << i;
    }
  }
}

TEST(HnswTest, ValidateAfterManyInserts) {
  Xoshiro256 rng(7);
  HnswIndex index(8, {.M = 8, .ef_construction = 50});
  for (int i = 0; i < 500; ++i) index.Add(RandomVector(rng, 8));
  EXPECT_TRUE(index.Validate().ok());
  EXPECT_EQ(index.size(), 500u);
}

TEST(HnswTest, DegreesNeverExceedCaps) {
  Xoshiro256 rng(8);
  HnswOptions options{.M = 4, .ef_construction = 30};
  HnswIndex index(4, options);
  for (int i = 0; i < 300; ++i) index.Add(RandomVector(rng, 4));
  for (uint32_t id = 0; id < index.size(); ++id) {
    for (uint32_t layer = 0; layer <= index.level(id); ++layer) {
      EXPECT_LE(index.neighbors(id, layer).size(), index.MaxDegree(layer));
    }
  }
}

TEST(HnswTest, EntryPointOnTopLevel) {
  Xoshiro256 rng(9);
  HnswIndex index(4);
  for (int i = 0; i < 200; ++i) index.Add(RandomVector(rng, 4));
  EXPECT_EQ(index.level(index.entry_point()),
            static_cast<uint32_t>(index.max_level_in_graph()));
}

TEST(HnswTest, MaxLevelCapRespected) {
  Xoshiro256 rng(10);
  HnswOptions options;
  options.max_level = 2;  // three layers, like the meta-HNSW
  HnswIndex index(4, options);
  for (int i = 0; i < 2000; ++i) index.Add(RandomVector(rng, 4));
  EXPECT_LE(index.max_level_in_graph(), 2);
  for (uint32_t id = 0; id < index.size(); ++id) EXPECT_LE(index.level(id), 2u);
}

TEST(HnswTest, DeterministicForSeed) {
  Xoshiro256 data_rng(11);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 200; ++i) data.push_back(RandomVector(data_rng, 4));

  HnswOptions options;
  options.seed = 77;
  HnswIndex a(4, options), b(4, options);
  for (const auto& v : data) {
    a.Add(v);
    b.Add(v);
  }
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.level(id), b.level(id));
    for (uint32_t layer = 0; layer <= a.level(id); ++layer) {
      const auto na = a.neighbors(id, layer);
      const auto nb = b.neighbors(id, layer);
      ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
    }
  }
}

TEST(HnswTest, SearchIsDeterministic) {
  Xoshiro256 rng(12);
  HnswIndex index(8);
  for (int i = 0; i < 400; ++i) index.Add(RandomVector(rng, 8));
  const auto q = RandomVector(rng, 8);
  const auto r1 = index.Search(q, 10, 32);
  const auto r2 = index.Search(q, 10, 32);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i].id, r2[i].id);
}

TEST(HnswTest, EfClampedUpToK) {
  Xoshiro256 rng(13);
  HnswIndex index(4);
  for (int i = 0; i < 100; ++i) index.Add(RandomVector(rng, 4));
  // ef = 1 but k = 10: must still return 10 results.
  const auto top = index.Search(RandomVector(rng, 4), 10, 1);
  EXPECT_EQ(top.size(), 10u);
}

TEST(HnswTest, ResultsSortedAndUnique) {
  Xoshiro256 rng(14);
  HnswIndex index(4);
  for (int i = 0; i < 300; ++i) index.Add(RandomVector(rng, 4));
  const auto top = index.Search(RandomVector(rng, 4), 20, 50);
  std::set<uint32_t> ids;
  for (size_t i = 0; i < top.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(top[i - 1].distance, top[i].distance);
    }
    ids.insert(top[i].id);
  }
  EXPECT_EQ(ids.size(), top.size());
}

TEST(HnswTest, RecallImprovesWithEf) {
  Dataset ds = MakeSynthetic({.dim = 16, .num_base = 3000, .num_queries = 50,
                              .num_clusters = 20, .seed = 42});
  ComputeGroundTruth(&ds, 10);

  HnswIndex index(16, {.M = 12, .ef_construction = 100});
  for (size_t i = 0; i < ds.base.size(); ++i) index.Add(ds.base[i]);

  auto recall_at_ef = [&](uint32_t ef) {
    std::vector<std::vector<Scored>> results;
    for (size_t qi = 0; qi < ds.queries.size(); ++qi) {
      results.push_back(index.Search(ds.queries[qi], 10, ef));
    }
    return MeanRecallAtK(ds, results, 10);
  };

  const double r_low = recall_at_ef(10);
  const double r_high = recall_at_ef(200);
  EXPECT_GE(r_high, r_low);
  EXPECT_GT(r_high, 0.95);  // near-exact at ef=200 on 3k points
}

TEST(HnswTest, HighRecallVsBruteForce) {
  Xoshiro256 rng(15);
  const uint32_t dim = 16;
  HnswIndex index(dim, {.M = 16, .ef_construction = 200});
  FlatIndex flat(dim);
  for (int i = 0; i < 2000; ++i) {
    const auto v = RandomVector(rng, dim, 10.0f);
    index.Add(v);
    flat.Add(v);
  }
  int hits = 0, total = 0;
  for (int t = 0; t < 50; ++t) {
    const auto q = RandomVector(rng, dim, 10.0f);
    const auto got = index.Search(q, 10, 100);
    const auto want = flat.Search(q, 10);
    std::set<uint32_t> want_ids;
    for (const auto& s : want) want_ids.insert(s.id);
    for (const auto& s : got) hits += want_ids.count(s.id);
    total += 10;
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.9);
}

TEST(HnswTest, IncrementalInsertsSearchable) {
  // Vectors added after initial build must be findable (dynamic insert).
  Xoshiro256 rng(16);
  HnswIndex index(4);
  for (int i = 0; i < 200; ++i) index.Add(RandomVector(rng, 4));
  const std::vector<float> special = {100.0f, 100.0f, 100.0f, 100.0f};
  const uint32_t id = index.Add(special);
  const auto top = index.Search(special, 1, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, id);
  EXPECT_TRUE(index.Validate().ok());
}

TEST(HnswTest, FromRawRoundTripPreservesStructureAndResults) {
  Xoshiro256 rng(17);
  HnswIndex index(8, {.M = 8, .ef_construction = 60});
  for (int i = 0; i < 300; ++i) index.Add(RandomVector(rng, 8));

  // Extract raw parts.
  std::vector<uint32_t> levels(index.size());
  std::vector<std::vector<std::vector<uint32_t>>> links(index.size());
  for (uint32_t id = 0; id < index.size(); ++id) {
    levels[id] = index.level(id);
    links[id].resize(levels[id] + 1);
    for (uint32_t layer = 0; layer <= levels[id]; ++layer) {
      const auto nbs = index.neighbors(id, layer);
      links[id][layer].assign(nbs.begin(), nbs.end());
    }
  }
  auto rebuilt = HnswIndex::FromRaw(
      8, index.options(),
      std::vector<float>(index.vectors().begin(), index.vectors().end()), levels,
      links, index.entry_point());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  const auto q = RandomVector(rng, 8);
  const auto r1 = index.Search(q, 10, 50);
  const auto r2 = rebuilt.value().Search(q, 10, 50);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i].id, r2[i].id);
}

TEST(HnswTest, FromRawRejectsBadAdjacency) {
  std::vector<float> vectors = {0.0f, 0.0f, 1.0f, 1.0f};
  std::vector<uint32_t> levels = {0, 0};
  std::vector<std::vector<std::vector<uint32_t>>> links(2);
  links[0] = {{5}};  // neighbor id 5 out of range
  links[1] = {{0}};
  auto r = HnswIndex::FromRaw(2, HnswOptions{}, vectors, levels, links, 0);
  EXPECT_FALSE(r.ok());
}

TEST(HnswTest, FromRawRejectsSizeMismatch) {
  auto r = HnswIndex::FromRaw(3, HnswOptions{}, {1.0f, 2.0f}, {0}, {{{}}}, 0);
  EXPECT_FALSE(r.ok());
}

TEST(HnswTest, SetNeighborsValidates) {
  HnswIndex index(2);
  index.Add(std::vector<float>{0, 0});
  index.Add(std::vector<float>{1, 1});
  const uint32_t ids_ok[] = {1};
  EXPECT_TRUE(index.SetNeighbors(0, 0, ids_ok).ok());
  const uint32_t ids_bad[] = {7};
  EXPECT_FALSE(index.SetNeighbors(0, 0, ids_bad).ok());
  EXPECT_FALSE(index.SetNeighbors(9, 0, ids_ok).ok());
}

/// Parameterized sweep over M: recall@10 with generous ef should be high for
/// all reasonable M, and the index must stay structurally valid.
class HnswMSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(HnswMSweepTest, RecallAndInvariants) {
  const uint32_t m = GetParam();
  Xoshiro256 rng(100 + m);
  const uint32_t dim = 8;
  HnswIndex index(dim, {.M = m, .ef_construction = 80});
  FlatIndex flat(dim);
  for (int i = 0; i < 1000; ++i) {
    const auto v = RandomVector(rng, dim, 5.0f);
    index.Add(v);
    flat.Add(v);
  }
  ASSERT_TRUE(index.Validate().ok());

  int hits = 0;
  constexpr int kQueries = 20, kK = 10;
  for (int t = 0; t < kQueries; ++t) {
    const auto q = RandomVector(rng, dim, 5.0f);
    const auto got = index.Search(q, kK, 80);
    const auto want = flat.Search(q, kK);
    std::set<uint32_t> want_ids;
    for (const auto& s : want) want_ids.insert(s.id);
    for (const auto& s : got) hits += want_ids.count(s.id);
  }
  EXPECT_GT(static_cast<double>(hits) / (kQueries * kK), 0.8) << "M=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HnswMSweepTest, ::testing::Values(4, 8, 16, 32));

}  // namespace
}  // namespace dhnsw
