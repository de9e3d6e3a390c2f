#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "util/bitset.h"
#include "util/rng.h"

namespace hypertree {
namespace {

Bitset RandomKey(int bits, Rng* rng) {
  Bitset b(bits);
  for (int i = 0; i < bits; ++i) {
    if (rng->Bernoulli(0.3)) b.Set(i);
  }
  return b;
}

TEST(BitsetFlatMapTest, FindOnEmpty) {
  BitsetFlatMap<int> m;
  EXPECT_EQ(nullptr, m.Find(Bitset::FromVector(10, {1})));
  EXPECT_EQ(0u, m.size());
}

TEST(BitsetFlatMapTest, TryEmplaceInsertsOnceAndFindsBack) {
  BitsetFlatMap<int> m;
  Bitset k = Bitset::FromVector(70, {0, 64, 69});
  auto [slot, inserted] = m.TryEmplace(k, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(7, *slot);
  auto [slot2, inserted2] = m.TryEmplace(k, 9);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(7, *slot2);  // first value wins, like try_emplace
  ASSERT_NE(nullptr, m.Find(k));
  EXPECT_EQ(7, *m.Find(k));
  EXPECT_EQ(1u, m.size());
}

TEST(BitsetFlatMapTest, RandomizedAgainstUnorderedMap) {
  // Same keys, same values, same hit/miss pattern as the std map it
  // replaces in the search memos — across enough inserts to force
  // several growth rehashes.
  Rng rng(123);
  for (int bits : {17, 64, 130}) {
    BitsetFlatMap<int> m;
    std::unordered_map<Bitset, int> ref;
    for (int op = 0; op < 3000; ++op) {
      Bitset k = RandomKey(bits, &rng);
      if (k.None()) k.Set(rng.UniformInt(bits));
      int v = rng.UniformInt(1000);
      auto [slot, inserted] = m.TryEmplace(k, v);
      auto [it, ref_inserted] = ref.try_emplace(k, v);
      EXPECT_EQ(ref_inserted, inserted);
      EXPECT_EQ(it->second, *slot);
      Bitset probe = RandomKey(bits, &rng);
      const int* hit = m.Find(probe);
      auto ref_hit = ref.find(probe);
      EXPECT_EQ(ref_hit != ref.end(), hit != nullptr);
      if (hit != nullptr) {
        EXPECT_EQ(ref_hit->second, *hit);
      }
    }
    EXPECT_EQ(ref.size(), m.size());
    for (const auto& [k, v] : ref) {
      ASSERT_NE(nullptr, m.Find(k));
      EXPECT_EQ(v, *m.Find(k));
    }
    m.clear();
    EXPECT_EQ(0u, m.size());
    EXPECT_EQ(nullptr, m.Find(RandomKey(bits, &rng)));
  }
}

}  // namespace
}  // namespace hypertree
