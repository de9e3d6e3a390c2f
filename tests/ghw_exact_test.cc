#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/ghw_lower_bounds.h"
#include "ghd/astar.h"
#include "ghd/branch_and_bound.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "portfolio/portfolio.h"
#include "util/rng.h"

namespace hypertree {
namespace {

TEST(GhwExactTest, KnownFamilies) {
  // Acyclic: ghw 1.
  {
    Hypergraph h = RandomAcyclicHypergraph(10, 4, 1);
    WidthResult bb = BranchAndBoundGhw(h);
    EXPECT_TRUE(bb.exact);
    EXPECT_EQ(bb.upper_bound, 1);
  }
  // Binary cycle: ghw 2.
  {
    Hypergraph h = CycleHypergraph(8, 2);
    WidthResult bb = BranchAndBoundGhw(h);
    EXPECT_TRUE(bb.exact);
    EXPECT_EQ(bb.upper_bound, 2);
  }
  // clique_6 (binary edges on K6): ghw = 3 (ceil(6/2)).
  {
    Hypergraph h = CliqueHypergraph(6);
    WidthResult bb = BranchAndBoundGhw(h);
    EXPECT_TRUE(bb.exact);
    EXPECT_EQ(bb.upper_bound, 3);
  }
}

TEST(GhwExactTest, BbAndAStarAgree) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Hypergraph h = RandomHypergraph(9, 8, 2, 4, seed * 17);
    WidthResult bb = BranchAndBoundGhw(h);
    WidthResult as = AStarGhw(h);
    ASSERT_TRUE(bb.exact) << "seed " << seed;
    ASSERT_TRUE(as.exact) << "seed " << seed;
    EXPECT_EQ(bb.upper_bound, as.upper_bound) << "seed " << seed;
  }
}

// ghw by brute force over every elimination ordering with exact covers
// (complete by Theorem 3; tiny n only). Independent of both searches: it
// shares only the bag-cover evaluator with them.
int BruteForceGhw(const Hypergraph& h) {
  std::vector<int> sigma(h.NumVertices());
  std::iota(sigma.begin(), sigma.end(), 0);
  GhwEvaluator eval(h);
  int best = h.NumEdges();
  do {
    best = std::min(best, eval.EvaluateOrdering(sigma, CoverMode::kExact));
  } while (std::next_permutation(sigma.begin(), sigma.end()));
  return best;
}

class GhwExactAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(GhwExactAgreementTest, BbAStarAndBruteForceAgree) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  int n = 5 + rng.UniformInt(3);  // 5..7 vertices: brute force feasible
  // 2n..4n edges of arity 2..3: dense enough that some instances have
  // ghw 3. On most tiny instances the static lower bound meets the
  // warm-start width, so neither search expands a node; with these
  // parameters BB-ghw searches on 4 seeds and A*-ghw on 5.
  int m = 2 * n + rng.UniformInt(2 * n);
  Hypergraph h = RandomHypergraph(n, m, 2, 3, seed + 300);
  int brute = BruteForceGhw(h);
  WidthResult bb = BranchAndBoundGhw(h);
  WidthResult as = AStarGhw(h);
  EXPECT_TRUE(bb.exact) << "seed " << seed;
  EXPECT_TRUE(as.exact) << "seed " << seed;
  EXPECT_EQ(bb.upper_bound, brute) << "BB seed " << seed;
  EXPECT_EQ(as.upper_bound, brute) << "A* seed " << seed;
  // The racing portfolio, at the default budget, proves the same width
  // whatever the racing thread count.
  for (int threads : {1, 2}) {
    PortfolioOptions options;
    options.threads = threads;
    PortfolioResult portfolio = PortfolioGhw(h, options);
    EXPECT_TRUE(portfolio.result.exact)
        << "portfolio threads " << threads << " seed " << seed;
    EXPECT_EQ(portfolio.result.upper_bound, brute)
        << "portfolio threads " << threads << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GhwExactAgreementTest,
                         ::testing::Range(0, 25));

TEST(GhwExactTest, WitnessOrderingAchievesWidth) {
  Hypergraph h = Grid2DHypergraph(3);
  WidthResult bb = BranchAndBoundGhw(h);
  ASSERT_TRUE(bb.exact);
  GhwEvaluator eval(h);
  EXPECT_EQ(eval.EvaluateOrdering(bb.best_ordering, CoverMode::kExact),
            bb.upper_bound);
  WidthResult as = AStarGhw(h);
  ASSERT_TRUE(as.exact);
  EXPECT_EQ(eval.EvaluateOrdering(as.best_ordering, CoverMode::kExact),
            as.upper_bound);
  EXPECT_EQ(bb.upper_bound, as.upper_bound);
}

TEST(GhwExactTest, AdderBlocksAreWidthTwo) {
  // The gate-level adder family has ghw 2 (the thesis' best upper bounds
  // for adder_* are 2).
  Hypergraph h = AdderHypergraph(3);
  WidthResult bb = BranchAndBoundGhw(h);
  ASSERT_TRUE(bb.exact);
  EXPECT_EQ(bb.upper_bound, 2);
}

TEST(GhwExactTest, GreedyCoverAblationNeverBetter) {
  // With greedy covers the search loses the exactness guarantee and can
  // only report a width >= the true ghw.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Hypergraph h = RandomHypergraph(9, 8, 2, 4, seed * 23 + 7);
    GhwSearchOptions greedy;
    greedy.cover_mode = CoverMode::kGreedy;
    WidthResult g = BranchAndBoundGhw(h, greedy);
    WidthResult e = BranchAndBoundGhw(h);
    ASSERT_TRUE(e.exact);
    EXPECT_FALSE(g.exact);
    EXPECT_GE(g.upper_bound, e.upper_bound) << "seed " << seed;
  }
}

TEST(GhwExactTest, GreedyModeAStarBoundsAreSound) {
  // With greedy covers the search's g-values overestimate costs; the
  // reported lower bound must still be valid (fall back to the static
  // bound, never the inflated f-values).
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Hypergraph h = RandomHypergraph(9, 8, 2, 4, seed * 47 + 13);
    WidthResult truth = BranchAndBoundGhw(h);
    ASSERT_TRUE(truth.exact);
    GhwSearchOptions greedy;
    greedy.cover_mode = CoverMode::kGreedy;
    WidthResult as = AStarGhw(h, greedy);
    EXPECT_LE(as.lower_bound, truth.upper_bound) << "seed " << seed;
    EXPECT_GE(as.upper_bound, truth.upper_bound) << "seed " << seed;
  }
}

TEST(GhwExactTest, BudgetedRunReturnsBounds) {
  Hypergraph h = Grid2DHypergraph(5);
  GhwSearchOptions opts;
  opts.max_nodes = 20;
  WidthResult bb = BranchAndBoundGhw(h, opts);
  EXPECT_LE(bb.lower_bound, bb.upper_bound);
  WidthResult as = AStarGhw(h, opts);
  EXPECT_LE(as.lower_bound, as.upper_bound);
}

TEST(GhwExactTest, LowerBoundNeverExceedsExactWidth) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Hypergraph h = RandomHypergraph(8, 7, 2, 4, seed + 31);
    WidthResult bb = BranchAndBoundGhw(h);
    ASSERT_TRUE(bb.exact);
    Rng rng(seed);
    EXPECT_LE(GhwLowerBound(h, &rng), bb.upper_bound) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hypertree
