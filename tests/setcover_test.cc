#include "setcover/exact.h"
#include "setcover/greedy.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "util/rng.h"

namespace hypertree {
namespace {

std::vector<Bitset> Sets(int universe,
                         const std::vector<std::vector<int>>& sets) {
  std::vector<Bitset> out;
  for (const auto& s : sets) out.push_back(Bitset::FromVector(universe, s));
  return out;
}

TEST(GreedyCoverTest, CoversTarget) {
  auto sets = Sets(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}});
  Bitset target = Bitset::FromVector(6, {0, 1, 2, 3, 4, 5});
  std::vector<int> chosen;
  int k = GreedySetCover(sets, target, nullptr, &chosen);
  EXPECT_EQ(k, static_cast<int>(chosen.size()));
  Bitset covered(6);
  for (int s : chosen) covered |= sets[s];
  EXPECT_TRUE(target.IsSubsetOf(covered));
  EXPECT_EQ(k, 2);  // {0,1,2} + {3,4,5}
}

TEST(GreedyCoverTest, EmptyTargetNeedsNothing) {
  auto sets = Sets(4, {{0, 1}});
  EXPECT_EQ(GreedySetCover(sets, Bitset(4)), 0);
}

TEST(GreedyCoverTest, ClassicLogFactorInstance) {
  // Greedy can be suboptimal: elements 0..5, optimal = 2 rows, greedy
  // takes the big diagonal set first.
  auto sets = Sets(6, {{0, 2, 4}, {1, 3, 5}, {0, 1}, {2, 3}, {4, 5, 0, 1}});
  Bitset target = Bitset::FromVector(6, {0, 1, 2, 3, 4, 5});
  int greedy = GreedySetCover(sets, target);
  int exact = ExactSetCover(sets, target);
  EXPECT_EQ(exact, 2);
  EXPECT_GE(greedy, exact);
}

// GreedySetCoverRows, the searches' kernel-backed path, must match the
// vector form over all candidates exactly: same count, same picks, same
// rng draw afterwards. Universes above 64 elements run the multi-word
// scan and more than 64 candidates the live-list scan; the active mask
// holds the candidates meeting the target plus some disjoint ones, which
// must influence nothing.
TEST(GreedyCoverTest, RowsFormMatchesVectorForm) {
  GreedyCoverScratch scratch;
  for (int universe : {10, 64, 70, 130}) {
    const int nwords = Bitset(universe).NumWords();
    const size_t stride = static_cast<size_t>(kernels::PaddedWords(nwords));
    for (int num_sets : {12, 64, 90}) {
      for (uint64_t seed = 1; seed <= 32; ++seed) {
        Rng gen(seed * 1000 + universe * 7 + num_sets);
        std::vector<Bitset> sets;
        Bitset coverable(universe);
        kernels::WordArena rows(num_sets * stride);
        for (int s = 0; s < num_sets; ++s) {
          Bitset b(universe);
          for (int e = 0; e < universe; ++e) {
            if (gen.UniformInt(4) == 0) b.Set(e);
          }
          for (int w = 0; w < nwords; ++w) {
            rows.data()[s * stride + w] = b.Word(w);
          }
          coverable |= b;
          sets.push_back(b);
        }
        // A random part of what the candidates cover, so some of them
        // miss it entirely.
        Bitset target(universe);
        for (int e = 0; e < universe; ++e) {
          if (coverable.Test(e) && gen.UniformInt(3) == 0) target.Set(e);
        }
        Bitset active(num_sets);
        for (int s = 0; s < num_sets; ++s) {
          if (sets[s].Intersects(target) || s % 5 == 0) active.Set(s);
        }
        Rng rng_vector(seed);
        std::vector<int> chosen_vector;
        const int k_vector =
            GreedySetCover(sets, target, &rng_vector, &chosen_vector);
        const uint64_t next_vector = rng_vector.Next();
        for (const Bitset* mask : {static_cast<const Bitset*>(nullptr),
                                   static_cast<const Bitset*>(&active)}) {
          Rng rng_rows(seed);
          std::vector<int> chosen_rows;
          const int k_rows =
              GreedySetCoverRows(rows.data(), stride, num_sets, mask, target,
                                 &rng_rows, &chosen_rows, &scratch);
          const std::string where = "universe " + std::to_string(universe) +
                                    " sets " + std::to_string(num_sets) +
                                    " seed " + std::to_string(seed) +
                                    (mask != nullptr ? " masked" : "");
          EXPECT_EQ(k_rows, k_vector) << where;
          EXPECT_EQ(chosen_rows, chosen_vector) << where;
          EXPECT_EQ(rng_rows.Next(), next_vector) << where;
        }
      }
    }
  }
}

TEST(ExactCoverTest, FindsOptimum) {
  auto sets = Sets(5, {{0}, {1}, {2}, {3}, {4}, {0, 1, 2, 3, 4}});
  Bitset target = Bitset::FromVector(5, {0, 1, 2, 3, 4});
  std::vector<int> chosen;
  EXPECT_EQ(ExactSetCover(sets, target, &chosen), 1);
  EXPECT_EQ(chosen, (std::vector<int>{5}));
}

TEST(ExactCoverTest, WitnessCoversTarget) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    int universe = 4 + rng.UniformInt(12);
    int num_sets = 3 + rng.UniformInt(10);
    std::vector<Bitset> sets;
    Bitset unionall(universe);
    for (int s = 0; s < num_sets; ++s) {
      Bitset b(universe);
      int size = 1 + rng.UniformInt(universe / 2 + 1);
      for (int i = 0; i < size; ++i) b.Set(rng.UniformInt(universe));
      sets.push_back(b);
      unionall |= b;
    }
    Bitset target = unionall;  // cover everything coverable
    std::vector<int> chosen;
    int k = ExactSetCover(sets, target, &chosen);
    Bitset covered(universe);
    for (int s : chosen) covered |= sets[s];
    EXPECT_TRUE(target.IsSubsetOf(covered));
    EXPECT_EQ(static_cast<int>(chosen.size()), k);
    // Exact never worse than greedy.
    EXPECT_LE(k, GreedySetCover(sets, target));
  }
}

TEST(ExactCoverTest, BruteForceAgreement) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    int universe = 3 + rng.UniformInt(7);   // <= 9 elements
    int num_sets = 2 + rng.UniformInt(7);   // <= 8 sets: 2^8 subsets
    std::vector<Bitset> sets;
    Bitset unionall(universe);
    for (int s = 0; s < num_sets; ++s) {
      Bitset b(universe);
      int size = 1 + rng.UniformInt(universe);
      for (int i = 0; i < size; ++i) b.Set(rng.UniformInt(universe));
      sets.push_back(b);
      unionall |= b;
    }
    // Brute force over all subsets of the candidate sets.
    int best = num_sets + 1;
    for (int mask = 0; mask < (1 << num_sets); ++mask) {
      Bitset covered(universe);
      for (int s = 0; s < num_sets; ++s) {
        if ((mask >> s) & 1) covered |= sets[s];
      }
      if (unionall.IsSubsetOf(covered)) {
        best = std::min(best, __builtin_popcount(mask));
      }
    }
    EXPECT_EQ(ExactSetCover(sets, unionall), best) << "trial " << trial;
  }
}

}  // namespace
}  // namespace hypertree
