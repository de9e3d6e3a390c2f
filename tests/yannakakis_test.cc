#include "csp/yannakakis.h"

#include <gtest/gtest.h>

#include "csp/backtracking.h"
#include "csp/generators.h"
#include "hypergraph/generators.h"
#include "td/tree_decomposition.h"

namespace hypertree {
namespace {

TEST(YannakakisTest, SimpleChain) {
  // R(0,1) - S(1,2) - T(2,3) with a single consistent combination.
  RelationTree tree;
  Relation r({0, 1});
  r.AddTuple({1, 2});
  r.AddTuple({5, 9});
  Relation s({1, 2});
  s.AddTuple({2, 3});
  Relation t({2, 3});
  t.AddTuple({3, 4});
  tree.relations = {r, s, t};
  tree.shape = TreeShape(3, {{0, 1}, {1, 2}}, /*root=*/0);
  auto result = AcyclicSolve(tree);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)[0], 1);
  EXPECT_EQ((*result)[1], 2);
  EXPECT_EQ((*result)[2], 3);
  EXPECT_EQ((*result)[3], 4);
}

TEST(YannakakisTest, DetectsInconsistency) {
  RelationTree tree;
  Relation r({0, 1});
  r.AddTuple({1, 2});
  Relation s({1, 2});
  s.AddTuple({9, 9});  // no tuple matches value 2 for variable 1
  tree.relations = {r, s};
  tree.shape = TreeShape(2, {{0, 1}}, /*root=*/0);
  EXPECT_FALSE(AcyclicSolve(tree).has_value());
}

TEST(YannakakisTest, EmptyTree) {
  RelationTree tree;
  auto result = AcyclicSolve(tree);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST(YannakakisTest, RootingOrdersChildrenAscending) {
  // Tree edges added out of id order, so TreeNeighbors(0) is {4, 1} and
  // TreeNeighbors(4) is {0, 3, 2}: the shape must not follow that order.
  TreeDecomposition td(5);
  for (int p = 0; p < 5; ++p) td.AddNode(Bitset(5));
  td.AddTreeEdge(0, 4);
  td.AddTreeEdge(4, 3);
  td.AddTreeEdge(0, 1);
  td.AddTreeEdge(4, 2);
  ASSERT_EQ(td.TreeNeighbors(0), (std::vector<int>{4, 1}));
  TreeShape shape(td.NumNodes(), td.TreeEdges(), /*root=*/0);
  EXPECT_EQ(shape.root(), 0);
  EXPECT_EQ(shape.children(0), (std::vector<int>{1, 4}));
  EXPECT_EQ(shape.children(4), (std::vector<int>{2, 3}));
  EXPECT_TRUE(shape.children(1).empty());
  EXPECT_EQ(shape.order(), (std::vector<int>{0, 1, 4, 2, 3}));
  const std::vector<int> parent = {-1, 0, 4, 4, 0};
  for (int p = 0; p < 5; ++p) EXPECT_EQ(shape.parent(p), parent[p]) << p;

  // Another root re-orients the same edges.
  TreeShape at4(td.NumNodes(), td.TreeEdges(), /*root=*/4);
  EXPECT_EQ(at4.children(4), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(at4.order(), (std::vector<int>{4, 0, 2, 3, 1}));
  EXPECT_EQ(TreeShape().NumNodes(), 0);

  // Not a single tree: a forest, and n - 1 edges closing a cycle.
  EXPECT_DEATH(TreeShape(3, {{0, 1}}, 0), "not a single tree");
  EXPECT_DEATH(TreeShape(4, {{0, 1}, {1, 2}, {2, 0}}, 0), "not a single tree");
}

TEST(YannakakisTest, SolveAcyclicCspAgainstBacktracking) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Hypergraph h = RandomAcyclicHypergraph(8, 3, seed);
    for (double tightness : {0.2, 0.5}) {
      Csp csp = RandomCspFromHypergraph(h, 2, tightness,
                                        /*plant_solution=*/false, seed * 3);
      auto direct = BacktrackingSolve(csp);
      auto acyclic = SolveAcyclicCsp(csp);
      EXPECT_EQ(direct.has_value(), acyclic.has_value())
          << "seed " << seed << " tightness " << tightness;
      if (acyclic.has_value()) {
        EXPECT_TRUE(csp.IsSolution(*acyclic));
      }
    }
  }
}

TEST(YannakakisTest, PlantedAcyclicAlwaysSolved) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Hypergraph h = RandomAcyclicHypergraph(12, 4, seed + 50);
    Csp csp = RandomCspFromHypergraph(h, 3, 0.1, /*plant_solution=*/true,
                                      seed);
    auto solution = SolveAcyclicCsp(csp);
    ASSERT_TRUE(solution.has_value()) << "seed " << seed;
    EXPECT_TRUE(csp.IsSolution(*solution));
  }
}

}  // namespace
}  // namespace hypertree
