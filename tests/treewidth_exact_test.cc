#include <algorithm>

#include <gtest/gtest.h>

#include "ghd/branch_and_bound.h"
#include "graph/generators.h"
#include "hypergraph/hypergraph.h"
#include "ordering/evaluator.h"
#include "td/astar.h"
#include "td/branch_and_bound.h"
#include "util/rng.h"

namespace hypertree {
namespace {

// Brute-force treewidth via exhaustive ordering enumeration (tiny n only).
int BruteForceTreewidth(const Graph& g) {
  int n = g.NumVertices();
  std::vector<int> sigma(n);
  for (int i = 0; i < n; ++i) sigma[i] = i;
  int best = n;
  do {
    best = std::min(best, EvaluateOrderingWidth(g, sigma));
  } while (std::next_permutation(sigma.begin(), sigma.end()));
  return best;
}

TEST(TreewidthExactTest, KnownSmallGraphs) {
  struct Case {
    Graph g;
    int tw;
  };
  std::vector<Case> cases;
  cases.push_back({PathGraph(6), 1});
  cases.push_back({CycleGraph(6), 2});
  cases.push_back({CompleteGraph(5), 4});
  cases.push_back({GridGraph(3, 3), 3});
  cases.push_back({GridGraph(4, 4), 4});
  for (auto& c : cases) {
    WidthResult bb = BranchAndBoundTreewidth(c.g);
    EXPECT_TRUE(bb.exact) << c.g.name();
    EXPECT_EQ(bb.upper_bound, c.tw) << "BB on " << c.g.name();
    WidthResult astar = AStarTreewidth(c.g);
    EXPECT_TRUE(astar.exact) << c.g.name();
    EXPECT_EQ(astar.upper_bound, c.tw) << "A* on " << c.g.name();
  }
}

TEST(TreewidthExactTest, WitnessOrderingAchievesReportedWidth) {
  Graph g = GridGraph(4, 4);
  WidthResult bb = BranchAndBoundTreewidth(g);
  ASSERT_TRUE(IsValidOrdering(bb.best_ordering, 16));
  EXPECT_EQ(EvaluateOrderingWidth(g, bb.best_ordering), bb.upper_bound);
  WidthResult as = AStarTreewidth(g);
  ASSERT_TRUE(IsValidOrdering(as.best_ordering, 16));
  EXPECT_EQ(EvaluateOrderingWidth(g, as.best_ordering), as.upper_bound);
}

class ExactAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactAgreementTest, BbAStarAndBruteForceAgree) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  int n = 5 + rng.UniformInt(3);  // 5..7 vertices: brute force feasible
  int max_m = n * (n - 1) / 2;
  int m = rng.UniformInt(max_m + 1);
  Graph g = RandomGraph(n, m, seed + 500);
  int brute = BruteForceTreewidth(g);
  WidthResult bb = BranchAndBoundTreewidth(g);
  WidthResult as = AStarTreewidth(g);
  EXPECT_TRUE(bb.exact);
  EXPECT_TRUE(as.exact);
  EXPECT_EQ(bb.upper_bound, brute) << "BB seed " << seed;
  EXPECT_EQ(as.upper_bound, brute) << "A* seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactAgreementTest, ::testing::Range(0, 25));

TEST(TreewidthExactTest, AblationsStillExact) {
  Graph g = GridGraph(4, 4);
  for (bool pr2 : {false, true}) {
    for (bool simplicial : {false, true}) {
      SearchOptions opts;
      opts.use_pr2 = pr2;
      opts.use_simplicial_reduction = simplicial;
      WidthResult bb = BranchAndBoundTreewidth(g, opts);
      EXPECT_TRUE(bb.exact);
      EXPECT_EQ(bb.upper_bound, 4) << "pr2=" << pr2 << " simp=" << simplicial;
    }
  }
  SearchOptions no_dedup;
  no_dedup.use_duplicate_detection = false;
  WidthResult as = AStarTreewidth(GridGraph(3, 3), no_dedup);
  EXPECT_TRUE(as.exact);
  EXPECT_EQ(as.upper_bound, 3);
}

TEST(TreewidthExactTest, BudgetedRunReturnsBounds) {
  Graph g = QueensGraph(6);  // tw 25: too hard for a tiny budget
  SearchOptions opts;
  opts.max_nodes = 50;
  WidthResult bb = BranchAndBoundTreewidth(g, opts);
  EXPECT_LE(bb.lower_bound, bb.upper_bound);
  EXPECT_FALSE(bb.exact);
  WidthResult as = AStarTreewidth(g, opts);
  EXPECT_LE(as.lower_bound, as.upper_bound);
  EXPECT_GE(as.lower_bound, 1);
  // One node-cap rule for both branch-and-bound searches: SearchBudget
  // stops on the max_nodes-th tick, so max_nodes - 1 nodes are expanded.
  GhwSearchOptions ghw_opts;
  ghw_opts.max_nodes = opts.max_nodes;
  WidthResult bb_ghw = BranchAndBoundGhw(HypergraphFromGraph(g), ghw_opts);
  EXPECT_FALSE(bb_ghw.exact);
  EXPECT_EQ(bb.nodes, 49);
  EXPECT_EQ(bb_ghw.nodes, 49);
}

TEST(TreewidthExactTest, KTreesAreExactlyK) {
  for (int k : {2, 3}) {
    Graph g = RandomKTree(12, k, 1.0, 40 + k);
    WidthResult bb = BranchAndBoundTreewidth(g);
    EXPECT_TRUE(bb.exact);
    EXPECT_EQ(bb.upper_bound, k);
  }
}

TEST(TreewidthExactTest, QueensFiveByFive) {
  // Table 5.1: queen5_5 has treewidth 18. Budgeted run: if the search
  // completes it must report exactly 18; otherwise the bounds bracket it.
  SearchOptions opts;
  opts.time_limit_seconds = 10.0;
  WidthResult as = AStarTreewidth(QueensGraph(5), opts);
  EXPECT_GE(as.upper_bound, 18);
  EXPECT_LE(as.lower_bound, 18);
  if (as.exact) {
    EXPECT_EQ(as.upper_bound, 18);
  }
}

TEST(TreewidthExactTest, EmptyAndSingleton) {
  WidthResult r0 = BranchAndBoundTreewidth(Graph(0));
  EXPECT_TRUE(r0.exact);
  EXPECT_EQ(r0.upper_bound, 0);
  WidthResult r1 = AStarTreewidth(Graph(1));
  EXPECT_TRUE(r1.exact);
  EXPECT_EQ(r1.upper_bound, 0);
}

}  // namespace
}  // namespace hypertree
