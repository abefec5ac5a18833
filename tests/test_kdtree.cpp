#include "index/kdtree.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "index/flat_index.h"

namespace dhnsw {
namespace {

std::vector<float> RandomData(Xoshiro256& rng, size_t n, uint32_t dim, float scale) {
  std::vector<float> data(n * dim);
  for (auto& x : data) x = (rng.NextFloat() - 0.5f) * scale;
  return data;
}

TEST(KdTreeTest, EmptySearchIsEmpty) {
  KdTreeIndex tree(4);
  tree.Build({});
  EXPECT_TRUE(tree.Search(std::vector<float>{0, 0, 0, 0}, 3, 10).empty());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(KdTreeTest, SingleLeafIsExact) {
  Xoshiro256 rng(1);
  KdTreeIndex tree(4, {.leaf_size = 64});
  const auto data = RandomData(rng, 50, 4, 10.0f);  // fits one leaf
  tree.Build(data);
  EXPECT_EQ(tree.num_leaves(), 1u);

  FlatIndex flat(4);
  flat.AddBatch(data);
  const auto q = RandomData(rng, 1, 4, 10.0f);
  const auto got = tree.Search(q, 5, 1);
  const auto want = flat.Search(q, 5);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].id, want[i].id);
}

TEST(KdTreeTest, ExactSearchMatchesFlatInLowDim) {
  // KD-trees shine in low dimension: exact search must equal brute force.
  Xoshiro256 rng(2);
  const uint32_t dim = 4;
  const auto data = RandomData(rng, 2000, dim, 100.0f);
  KdTreeIndex tree(dim, {.leaf_size = 8});
  tree.Build(data);
  FlatIndex flat(dim);
  flat.AddBatch(data);

  for (int t = 0; t < 30; ++t) {
    const auto q = RandomData(rng, 1, dim, 100.0f);
    const auto got = tree.SearchExact(q, 10);
    const auto want = flat.Search(q, 10);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "trial " << t << " rank " << i;
    }
  }
}

TEST(KdTreeTest, MoreLeavesNeverHurtRecall) {
  Xoshiro256 rng(3);
  const uint32_t dim = 16;
  const auto data = RandomData(rng, 3000, dim, 50.0f);
  KdTreeIndex tree(dim, {.leaf_size = 16});
  tree.Build(data);
  FlatIndex flat(dim);
  flat.AddBatch(data);

  auto recall_at = [&](size_t max_leaves) {
    int hits = 0;
    Xoshiro256 qrng(4);
    for (int t = 0; t < 20; ++t) {
      const auto q = RandomData(qrng, 1, dim, 50.0f);
      const auto got = tree.Search(q, 10, max_leaves);
      const auto want = flat.Search(q, 10);
      std::set<uint32_t> want_ids;
      for (const auto& s : want) want_ids.insert(s.id);
      for (const auto& s : got) hits += want_ids.count(s.id);
    }
    return hits;
  };

  const int r1 = recall_at(1);
  const int r16 = recall_at(16);
  const int r_all = recall_at(tree.num_leaves());
  EXPECT_LE(r1, r16);
  EXPECT_LE(r16, r_all);
  EXPECT_EQ(r_all, 20 * 10);  // exhaustive == exact
}

TEST(KdTreeTest, HighDimensionalCurseShows) {
  // The paper's motivation: in high dimension, limited-backtracking KD
  // search needs to visit a large share of the leaves for decent recall.
  Xoshiro256 rng(5);
  const uint32_t dim = 64;
  const auto data = RandomData(rng, 4000, dim, 10.0f);
  KdTreeIndex tree(dim, {.leaf_size = 16});
  tree.Build(data);
  FlatIndex flat(dim);
  flat.AddBatch(data);

  int hits = 0;
  Xoshiro256 qrng(6);
  const size_t few_leaves = tree.num_leaves() / 50;  // 2% of leaves
  for (int t = 0; t < 20; ++t) {
    const auto q = RandomData(qrng, 1, dim, 10.0f);
    const auto got = tree.Search(q, 10, std::max<size_t>(few_leaves, 1));
    const auto want = flat.Search(q, 10);
    std::set<uint32_t> want_ids;
    for (const auto& s : want) want_ids.insert(s.id);
    for (const auto& s : got) hits += want_ids.count(s.id);
  }
  EXPECT_LT(hits, 20 * 10 * 7 / 10) << "high-dim KD search should struggle at 2% leaves";
}

TEST(KdTreeTest, ResultsSortedAndDeterministic) {
  Xoshiro256 rng(7);
  const auto data = RandomData(rng, 500, 8, 10.0f);
  KdTreeIndex tree(8);
  tree.Build(data);
  const auto q = RandomData(rng, 1, 8, 10.0f);
  const auto r1 = tree.Search(q, 10, 5);
  const auto r2 = tree.Search(q, 10, 5);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].id, r2[i].id);
    if (i > 0) {
      EXPECT_LE(r1[i - 1].distance, r1[i].distance);
    }
  }
}

TEST(KdTreeTest, RebuildReplacesContents) {
  KdTreeIndex tree(2, {.leaf_size = 2});
  tree.Build(std::vector<float>{0, 0, 1, 1, 2, 2});
  EXPECT_EQ(tree.size(), 3u);
  tree.Build(std::vector<float>{5, 5});
  EXPECT_EQ(tree.size(), 1u);
  const auto top = tree.SearchExact(std::vector<float>{5, 5}, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 0u);
  EXPECT_FLOAT_EQ(top[0].distance, 0.0f);
}

}  // namespace
}  // namespace dhnsw
