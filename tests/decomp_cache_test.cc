#include "search/decomp_cache.h"

#include <memory>

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

TEST(DecompCacheTest, LookupOnEmptyCacheIsUnknown) {
  DecompCache cache;
  EXPECT_EQ(cache.Lookup(Bits(8, {0, 1}), Bits(8, {2}), 2),
            DecompCache::Outcome::kUnknown);
  DecompCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 0);
}

TEST(DecompCacheTest, NegativeEntryRoundTrips) {
  DecompCache cache;
  Bitset comp = Bits(8, {0, 1, 2});
  Bitset conn = Bits(8, {3});
  cache.InsertNegative(comp, conn, 2);
  EXPECT_EQ(cache.Lookup(comp, conn, 2), DecompCache::Outcome::kNegative);
  // A different k, connector or component is a distinct subproblem.
  EXPECT_EQ(cache.Lookup(comp, conn, 3), DecompCache::Outcome::kUnknown);
  EXPECT_EQ(cache.Lookup(comp, Bits(8, {4}), 2),
            DecompCache::Outcome::kUnknown);
  EXPECT_EQ(cache.Lookup(Bits(8, {0, 1}), conn, 2),
            DecompCache::Outcome::kUnknown);
}

TEST(DecompCacheTest, PositiveEntryReturnsWitness) {
  DecompCache cache;
  Bitset comp = Bits(10, {4, 5, 6});
  Bitset conn = Bits(10, {1, 2});
  auto subtree = std::make_shared<CachedSubtree>();
  subtree->chi.push_back(Bits(10, {1, 2, 4}));
  subtree->lambda.push_back({0, 3});
  subtree->parent.push_back(-1);
  cache.InsertPositive(comp, conn, 3, subtree);

  std::shared_ptr<const CachedSubtree> got;
  EXPECT_EQ(cache.Lookup(comp, conn, 3, &got),
            DecompCache::Outcome::kPositive);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->chi.size(), 1u);
  EXPECT_EQ(got->chi[0], Bits(10, {1, 2, 4}));
  EXPECT_EQ(got->lambda[0], (std::vector<int>{0, 3}));
  EXPECT_EQ(got->parent[0], -1);
}

TEST(DecompCacheTest, StatsCountHitsMissesInserts) {
  DecompCache cache;
  Bitset comp = Bits(8, {0});
  Bitset conn = Bits(8, {1});
  cache.Lookup(comp, conn, 1);    // miss
  cache.InsertNegative(comp, conn, 1);  // insert
  cache.Lookup(comp, conn, 1);    // hit
  cache.Lookup(comp, conn, 1);    // hit
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
  Bitset comp = Bits(8, {0, 1});
  Bitset conn = Bits(8, {2});
  cache.InsertNegative(comp, conn, 2);
  EXPECT_EQ(cache.Lookup(comp, conn, 2), DecompCache::Outcome::kNegative);
  long inserts_before = cache.stats().inserts;
  cache.Clear();
  EXPECT_EQ(cache.Lookup(comp, conn, 2), DecompCache::Outcome::kUnknown);
  EXPECT_EQ(cache.stats().inserts, inserts_before);
}

TEST(DecompCacheTest, SingleShardStillWorks) {
  DecompCache cache(1);
  EXPECT_EQ(cache.num_shards(), 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cache.Lookup(Bits(8, {i}), Bits(8, {(i + 1) % 8}), 2),
              DecompCache::Outcome::kUnknown);
    cache.InsertNegative(Bits(8, {i}), Bits(8, {(i + 1) % 8}), 2);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cache.Lookup(Bits(8, {i}), Bits(8, {(i + 1) % 8}), 2),
              DecompCache::Outcome::kNegative);
  }
  EXPECT_EQ(cache.NumEntries(), size_t{8});
}

}  // namespace
}  // namespace hypertree
