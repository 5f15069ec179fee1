// support::LruCache: recency order, eviction accounting, capacity 0.
#include "support/lru_cache.h"

#include <gtest/gtest.h>

#include <string>

namespace symref::support {
namespace {

TEST(LruCache, FindMissesThenHitsAfterInsert) {
  LruCache<std::string, int> cache(4);
  EXPECT_EQ(cache.find("a"), nullptr);
  EXPECT_EQ(cache.insert("a", 1), 0u);
  ASSERT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(*cache.find("a"), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<std::string, int> cache(2);
  cache.insert("a", 1);
  cache.insert("b", 2);
  // Touch "a": "b" becomes the eviction candidate.
  ASSERT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(cache.insert("c", 3), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
}

TEST(LruCache, OverwriteDoesNotEvict) {
  LruCache<std::string, int> cache(2);
  cache.insert("a", 1);
  cache.insert("b", 2);
  EXPECT_EQ(cache.insert("a", 10), 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.find("a"), 10);
  // "b" was least recently used before the overwrite touched "a".
  EXPECT_EQ(cache.insert("c", 3), 1u);
  EXPECT_EQ(cache.find("b"), nullptr);
}

TEST(LruCache, ZeroCapacityHoldsNothing) {
  LruCache<int, int> cache(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(cache.insert(i, i), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(0), nullptr);
}

}  // namespace
}  // namespace symref::support
