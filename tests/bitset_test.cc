#include "util/bitset.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace hypertree {
namespace {

TEST(BitsetTest, StartsEmpty) {
  Bitset b(100);
  EXPECT_EQ(b.Count(), 0);
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.Any());
  EXPECT_EQ(b.First(), -1);
}

TEST(BitsetTest, SetResetTest) {
  Bitset b(130);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2);
}

TEST(BitsetTest, SetAllRespectsSize) {
  Bitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70);
  b.Clear();
  EXPECT_EQ(b.Count(), 0);
}

TEST(BitsetTest, IterationVisitsAllSetBits) {
  Bitset b(200);
  std::vector<int> expected = {0, 1, 63, 64, 65, 127, 128, 199};
  for (int i : expected) b.Set(i);
  std::vector<int> got;
  for (int i = b.First(); i >= 0; i = b.Next(i)) got.push_back(i);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(b.ToVector(), expected);
}

TEST(BitsetTest, SetAlgebra) {
  Bitset a = Bitset::FromVector(10, {1, 2, 3});
  Bitset b = Bitset::FromVector(10, {3, 4});
  EXPECT_EQ((a | b).ToVector(), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ((a & b).ToVector(), (std::vector<int>{3}));
  EXPECT_EQ((a - b).ToVector(), (std::vector<int>{1, 2}));
}

TEST(BitsetTest, SubsetAndIntersection) {
  Bitset a = Bitset::FromVector(100, {5, 50, 99});
  Bitset b = Bitset::FromVector(100, {5, 20, 50, 99});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_EQ(a.IntersectCount(b), 3);
  Bitset c = Bitset::FromVector(100, {1, 2});
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_EQ(a.IntersectCount(c), 0);
}

TEST(BitsetTest, EqualityAndHash) {
  Bitset a = Bitset::FromVector(77, {0, 10, 76});
  Bitset b = Bitset::FromVector(77, {0, 10, 76});
  Bitset c = Bitset::FromVector(77, {0, 10});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
  std::unordered_set<Bitset> set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);
}

TEST(BitsetTest, ToString) {
  Bitset a = Bitset::FromVector(10, {1, 5});
  EXPECT_EQ(a.ToString(), "{1, 5}");
  EXPECT_EQ(Bitset(4).ToString(), "{}");
}

TEST(BitsetTest, IsSubsetOfMatchesEmptyDifference) {
  Rng rng(12);
  for (int n : {1, 64, 65, 300}) {
    for (int trial = 0; trial < 20; ++trial) {
      Bitset a(n), b(n);
      for (int i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.3)) a.Set(i);
        if (rng.Bernoulli(0.6)) b.Set(i);
      }
      EXPECT_EQ(a.IsSubsetOf(b), (a - b).None());
      EXPECT_TRUE(Bitset(n).IsSubsetOf(b));
    }
  }
}

TEST(BitsetTest, AppendToCollectsAscendingAndAppends) {
  Bitset a = Bitset::FromVector(200, {3, 64, 65, 199});
  std::vector<int> out = {-1};
  a.AppendTo(&out);
  EXPECT_EQ(out, (std::vector<int>{-1, 3, 64, 65, 199}));
  Bitset(50).AppendTo(&out);  // empty set appends nothing
  EXPECT_EQ(out.size(), 5u);
}

TEST(BitsetTest, HeapWordsAre32ByteAligned) {
  // Padded-capacity contract (docs/KERNELS.md): multi-word storage is
  // 32-byte aligned so vector backends can stream whole lanes.
  for (int n : {65, 128, 300, 4096}) {
    Bitset b(n);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(b.Words()) % 32) << n;
  }
}

TEST(BitsetTest, RandomizedAgainstReference) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    int n = 1 + rng.UniformInt(300);
    Bitset b(n);
    std::unordered_set<int> ref;
    for (int op = 0; op < 200; ++op) {
      int i = rng.UniformInt(n);
      if (rng.Bernoulli(0.5)) {
        b.Set(i);
        ref.insert(i);
      } else {
        b.Reset(i);
        ref.erase(i);
      }
    }
    EXPECT_EQ(b.Count(), static_cast<int>(ref.size()));
    for (int i = 0; i < n; ++i) EXPECT_EQ(b.Test(i), ref.count(i) > 0);
  }
}

}  // namespace
}  // namespace hypertree
