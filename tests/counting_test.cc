#include "csp/counting.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csp/backtracking.h"
#include "csp/generators.h"
#include "ghd/ghw_from_ordering.h"
#include "graph/generators.h"
#include "hypergraph/generators.h"
#include "ordering/heuristics.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

struct Decomps {
  TreeDecomposition td;
  GeneralizedHypertreeDecomposition ghd;
};

Decomps Decompose(const Csp& csp, uint64_t seed) {
  Hypergraph h = csp.ConstraintHypergraph();
  GhwEvaluator eval(h);
  Rng rng(seed);
  EliminationOrdering sigma = MinFillOrdering(eval.primal(), &rng);
  return {TreeDecompositionFromOrdering(eval.primal(), sigma),
          eval.BuildGhd(sigma, CoverMode::kExact)};
}

TEST(CountingTest, TriangleColorings) {
  Csp csp = GraphColoringCsp(CompleteGraph(3), 3);
  Decomps d = Decompose(csp, 1);
  EXPECT_EQ(CountViaTreeDecomposition(csp, d.td), 6);
  EXPECT_EQ(CountViaGhd(csp, d.ghd), 6);
}

TEST(CountingTest, PathColoringsClosedForm) {
  // Proper q-colorings of a path with n vertices: q * (q-1)^(n-1).
  Csp csp = GraphColoringCsp(PathGraph(6), 3);
  Decomps d = Decompose(csp, 2);
  EXPECT_EQ(CountViaTreeDecomposition(csp, d.td), 3 * 32);
  EXPECT_EQ(CountViaGhd(csp, d.ghd), 3 * 32);
}

TEST(CountingTest, CycleColoringsClosedForm) {
  // Proper q-colorings of a cycle C_n: (q-1)^n + (-1)^n (q-1).
  Csp csp = GraphColoringCsp(CycleGraph(5), 3);
  Decomps d = Decompose(csp, 3);
  EXPECT_EQ(CountViaTreeDecomposition(csp, d.td), 32 - 2);
}

TEST(CountingTest, UnsatCountsZero) {
  Csp csp = SatCsp(2, {{1}, {-1}});
  Decomps d = Decompose(csp, 4);
  EXPECT_EQ(CountViaTreeDecomposition(csp, d.td), 0);
  EXPECT_EQ(CountViaGhd(csp, d.ghd), 0);
}

class CountingAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(CountingAgreementTest, MatchesBacktrackingOnRandomCsps) {
  uint64_t seed = GetParam();
  Hypergraph h = RandomHypergraph(8, 9, 2, 3, seed * 19 + 2);
  for (double tightness : {0.3, 0.6}) {
    Csp csp = RandomCspFromHypergraph(h, 2, tightness, false, seed);
    long expected = BacktrackingCountSolutions(csp);
    Decomps d = Decompose(csp, seed);
    EXPECT_EQ(CountViaTreeDecomposition(csp, d.td), expected)
        << "td seed " << seed << " t " << tightness;
    EXPECT_EQ(CountViaGhd(csp, d.ghd), expected)
        << "ghd seed " << seed << " t " << tightness;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountingAgreementTest, ::testing::Range(0, 12));

TEST(CountingTest, AcyclicCountMatchesBacktracking) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Hypergraph h = RandomAcyclicHypergraph(7, 3, seed);
    Csp csp = RandomCspFromHypergraph(h, 2, 0.5, false, seed + 9);
    EXPECT_EQ(CountAcyclicCsp(csp), BacktrackingCountSolutions(csp))
        << "seed " << seed;
  }
}

TEST(CountingTest, FreeVariablesMultiplyDomains) {
  // One binary constraint over {0,1}; variable 2 unconstrained with
  // domain 3: counts multiply.
  Csp csp(3, 3);
  Relation r({0, 1});
  r.AddTuple({0, 0});
  r.AddTuple({1, 2});
  csp.AddConstraint({0, 1}, std::move(r));
  EXPECT_EQ(CountAcyclicCsp(csp), 2 * 3);
}

// Combinations of one row per relation (from rels[i] on) that agree on
// every variable they share, given the values bound so far (`value`,
// indexed by variable id; `bound` marks which are set).
long long NestedLoopCount(const std::vector<Relation>& rels, size_t i,
                          std::vector<int>* value, std::vector<bool>* bound) {
  if (i == rels.size()) return 1;
  const Relation& r = rels[i];
  long long count = 0;
  std::vector<int> fresh;
  for (int t = 0; t < r.Size(); ++t) {
    const int* row = r.Row(t);
    bool agrees = true;
    for (int c = 0; c < r.Arity() && agrees; ++c) {
      const int v = r.schema()[c];
      agrees = !(*bound)[v] || (*value)[v] == row[c];
    }
    if (!agrees) continue;
    fresh.clear();
    for (int c = 0; c < r.Arity(); ++c) {
      const int v = r.schema()[c];
      if ((*bound)[v]) continue;
      (*bound)[v] = true;
      (*value)[v] = row[c];
      fresh.push_back(v);
    }
    count += NestedLoopCount(rels, i + 1, value, bound);
    for (int v : fresh) (*bound)[v] = false;
  }
  return count;
}

Relation RandomRows(const std::vector<int>& schema, int rows,
                    const std::vector<int>& values, Rng* rng) {
  Relation r(schema);
  std::vector<int> row(schema.size());
  for (int t = 0; t < rows; ++t) {
    for (int& v : row) {
      v = values[rng->UniformInt(static_cast<int>(values.size()))];
    }
    r.AddRow(row.data());
  }
  return r;
}

TEST(CountingTest, UnpackableAndEmptyKeysMatchNestedLoopCount) {
  // Hand-built trees whose parent-child keys do not pack (negative
  // values; three shared 30-bit columns) or are empty (no shared
  // variable). Each root spans more than one morsel.
  Rng rng(5);
  std::vector<int> negative;
  for (int v = -3; v <= 3; ++v) negative.push_back(v);
  std::vector<int> wide;  // 30-bit values: three columns need 90 bits
  for (int i = 0; i < 4; ++i) {
    wide.push_back((1 << 29) + rng.UniformInt(1 << 29));
  }
  const std::vector<int> small = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  struct Case {
    std::string name;
    RelationTree tree;
  };
  std::vector<Case> cases(3);
  cases[0].name = "negative values";
  cases[0].tree.relations = {RandomRows({0, 1, 2}, 6000, negative, &rng),
                             RandomRows({1, 2, 3}, 40, negative, &rng),
                             RandomRows({3, 4}, 20, negative, &rng)};
  cases[0].tree.shape = TreeShape(3, {{0, 1}, {1, 2}}, /*root=*/0);
  cases[1].name = "three 30-bit shared columns";
  cases[1].tree.relations = {RandomRows({0, 1, 2, 3}, 6000, wide, &rng),
                             RandomRows({2, 0, 1, 4}, 30, wide, &rng),
                             RandomRows({3, 5}, 6, wide, &rng)};
  cases[1].tree.shape = TreeShape(3, {{0, 1}, {0, 2}}, /*root=*/0);
  cases[2].name = "no shared variable";
  cases[2].tree.relations = {RandomRows({0, 1}, 12, small, &rng),
                             RandomRows({2, 3}, 4500, small, &rng),
                             RandomRows({3, 4}, 10, small, &rng)};
  cases[2].tree.shape = TreeShape(3, {{0, 1}, {1, 2}}, /*root=*/0);

  ThreadPool pool(4);
  metrics::Counter& joined = metrics::GetCounter("relation.rows_joined");
  metrics::Counter& dropped =
      metrics::GetCounter("relation.rows_semijoin_dropped");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<int> value(6, 0);
    std::vector<bool> bound(6, false);
    const long long want =
        NestedLoopCount(c.tree.relations, 0, &value, &bound);
    EXPECT_GT(want, 0);
    const long joined0 = joined.Value();
    const long dropped0 = dropped.Value();
    EXPECT_EQ(CountRelationTree(c.tree), want);
    EXPECT_EQ(CountRelationTree(c.tree, &pool), want);
    // Counting is not a join: it adds no joined or dropped rows.
    EXPECT_EQ(joined.Value(), joined0);
    EXPECT_EQ(dropped.Value(), dropped0);
  }
}

}  // namespace
}  // namespace hypertree
