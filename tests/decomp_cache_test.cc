#include "search/decomp_cache.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "td/elimination_search.h"
#include "util/bitset.h"

namespace hypertree {
namespace {

Bitset Bits(int size, std::initializer_list<int> bits) {
  Bitset b(size);
  for (int i : bits) b.Set(i);
  return b;
}

std::shared_ptr<const CachedSubtree> OneNodeSubtree(const Bitset& chi) {
  auto subtree = std::make_shared<CachedSubtree>();
  subtree->chi.push_back(chi);
  subtree->lambda.push_back({0, 3});
  subtree->parent.push_back(-1);
  return subtree;
}

TEST(DecompCacheTest, LookupOnEmptyCacheIsUnknown) {
  DecompCache cache;
  EXPECT_EQ(cache.LookupInstance(Bits(128, {0, 1})),
            DecompCache::Outcome::kUnknown);
  DecompCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 0);
}

TEST(DecompCacheTest, InstanceEntryReturnsMetaAndWitness) {
  DecompCache cache;
  Bitset key = Bits(128, {4, 5, 70});
  cache.InsertInstance(key, 42, OneNodeSubtree(Bits(10, {1, 2, 4})));

  int meta = 0;
  std::shared_ptr<const CachedSubtree> got;
  EXPECT_EQ(cache.LookupInstance(key, &meta, &got),
            DecompCache::Outcome::kPositive);
  EXPECT_EQ(meta, 42);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->chi.size(), 1u);
  EXPECT_EQ(got->chi[0], Bits(10, {1, 2, 4}));
  EXPECT_EQ(got->lambda[0], (std::vector<int>{0, 3}));
  EXPECT_EQ(got->parent[0], -1);
  // A different key is a different instance.
  EXPECT_EQ(cache.LookupInstance(Bits(128, {4, 5})),
            DecompCache::Outcome::kUnknown);
}

TEST(DecompCacheTest, StatsCountHitsMissesInserts) {
  DecompCache cache;
  Bitset key = Bits(128, {0, 1});
  cache.LookupInstance(key);                           // miss
  cache.InsertInstance(key, 1, OneNodeSubtree(key));   // insert
  cache.InsertInstance(key, 2, OneNodeSubtree(key));   // first write wins
  cache.LookupInstance(key);                           // hit
  cache.LookupInstance(key);                           // hit
  DecompCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.hits, 2);
}

// The elimination-ordering searches' transposition / duplicate table:
// key an eliminated vertex set, value the smallest g it was reached with.
TEST(BestGTableTest, DominatedOrInsertSemantics) {
  search_internal::BestGTable table;
  Bitset state = Bits(16, {3, 7, 11});
  // First visit: records value 3, not dominated.
  EXPECT_FALSE(table.DominatedOrInsert(state, 3));
  // Revisit with equal or worse value: dominated.
  EXPECT_TRUE(table.DominatedOrInsert(state, 3));
  EXPECT_TRUE(table.DominatedOrInsert(state, 5));
  // Revisit with a better value: not dominated, entry is improved.
  EXPECT_FALSE(table.DominatedOrInsert(state, 2));
  EXPECT_TRUE(table.DominatedOrInsert(state, 2));
  // A different state is independent.
  EXPECT_FALSE(table.DominatedOrInsert(Bits(16, {3, 7}), 3));
  // Every dominated probe is a hit; every other one a miss and an insert.
  DecompCacheStats s = table.Publish();
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.inserts, 3);
}

TEST(BestGTableTest, DominatedStrictNeverInserts) {
  search_internal::BestGTable table;
  Bitset state = Bits(16, {1, 2});
  EXPECT_FALSE(table.DominatedStrict(state, 4));  // unknown state
  EXPECT_FALSE(table.DominatedOrInsert(state, 3));
  EXPECT_FALSE(table.DominatedStrict(state, 3));  // equal is not strict
  EXPECT_TRUE(table.DominatedStrict(state, 4));
  EXPECT_FALSE(table.DominatedStrict(state, 2));
  // Only the DominatedOrInsert call inserted.
  DecompCacheStats s = table.Publish();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 4);
  EXPECT_EQ(s.inserts, 1);
}

TEST(DecompCacheTest, ClearDropsEntriesKeepsCounters) {
  DecompCache cache;
  Bitset key = Bits(128, {0, 1, 2});
  cache.InsertInstance(key, 2, OneNodeSubtree(key));
  EXPECT_EQ(cache.LookupInstance(key), DecompCache::Outcome::kPositive);
  long inserts_before = cache.stats().inserts;
  cache.Clear();
  EXPECT_EQ(cache.LookupInstance(key), DecompCache::Outcome::kUnknown);
  EXPECT_EQ(cache.NumEntries(), size_t{0});
  EXPECT_EQ(cache.stats().inserts, inserts_before);
}

TEST(DecompCacheTest, ManyInstancesKeepTheirMeta) {
  DecompCache cache;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cache.LookupInstance(Bits(128, {i})),
              DecompCache::Outcome::kUnknown);
    cache.InsertInstance(Bits(128, {i}), i, OneNodeSubtree(Bits(8, {i})));
  }
  for (int i = 0; i < 8; ++i) {
    int meta = -1;
    EXPECT_EQ(cache.LookupInstance(Bits(128, {i}), &meta),
              DecompCache::Outcome::kPositive);
    EXPECT_EQ(meta, i);
  }
  EXPECT_EQ(cache.NumEntries(), size_t{8});
}

}  // namespace
}  // namespace hypertree
