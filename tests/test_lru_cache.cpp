#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <string>

namespace dhnsw {
namespace {

TEST(LruCacheTest, BasicPutGet) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, MissReturnsNull) {
  LruCache<int, int> cache(2);
  EXPECT_EQ(cache.Get(5), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Get(1);       // 1 becomes MRU
  cache.Put(3, 30);   // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(LruCacheTest, PutRefreshesRecency) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);   // overwrite refreshes
  cache.Put(3, 30);   // evicts 2, not 1
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(*cache.Peek(1), 11);
  EXPECT_FALSE(cache.Contains(2));
}

TEST(LruCacheTest, ZeroCapacityStoresNothing) {
  LruCache<int, int> cache(0);
  EXPECT_EQ(cache.Put(1, 10), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_FALSE(cache.Erase(1));
}

TEST(LruCacheTest, ClearEmpties) {
  LruCache<int, int> cache(4);
  for (int i = 0; i < 4; ++i) cache.Put(i, i);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.KeysByRecency().empty());
}

TEST(LruCacheTest, StatsCountHitsAndMisses) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Get(1);
  cache.Get(1);
  cache.Get(2);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LruCacheTest, PeekDoesNotTouchRecencyOrStats) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  (void)cache.Peek(1);            // would save 1 if it refreshed recency
  cache.Put(3, 30);               // evicts 1 (still LRU)
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(LruCacheTest, RecencyOrderIsMruFirst) {
  LruCache<int, int> cache(3);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Put(3, 3);
  cache.Get(1);
  const auto keys = cache.KeysByRecency();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys.front(), 1);
  EXPECT_EQ(keys.back(), 2);
}

/// Property sweep over capacities: after any sequence of puts, size never
/// exceeds capacity (nothing pinned), and the retained set is exactly the
/// `capacity` most recently used keys.
class LruCapacityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LruCapacityTest, RetainsMostRecent) {
  const size_t cap = GetParam();
  LruCache<int, int> cache(cap);
  const int total = 100;
  for (int i = 0; i < total; ++i) cache.Put(i, i);
  EXPECT_EQ(cache.size(), std::min<size_t>(cap, total));
  for (int i = 0; i < total; ++i) {
    const bool expect_present = i >= total - static_cast<int>(cap);
    EXPECT_EQ(cache.Contains(i), expect_present) << "key " << i << " cap " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LruCapacityTest, ::testing::Values(1, 2, 3, 7, 50, 100, 200));

}  // namespace
}  // namespace dhnsw
