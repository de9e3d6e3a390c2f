#include "csp/decomposition_solving.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csp/backtracking.h"
#include "csp/generators.h"
#include "csp/morsel.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "ordering/heuristics.h"
#include "td/tree_decomposition.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

// Builds a TD and a GHD of the CSP's constraint hypergraph via min-fill.
struct Decompositions {
  TreeDecomposition td;
  GeneralizedHypertreeDecomposition ghd;
};

Decompositions Decompose(const Csp& csp, uint64_t seed) {
  Hypergraph h = csp.ConstraintHypergraph();
  GhwEvaluator eval(h);
  Rng rng(seed);
  EliminationOrdering sigma = MinFillOrdering(eval.primal(), &rng);
  return {TreeDecompositionFromOrdering(eval.primal(), sigma),
          eval.BuildGhd(sigma, CoverMode::kExact)};
}

TEST(DecompositionSolvingTest, AustraliaViaTd) {
  Csp csp = AustraliaMapColoring();
  Decompositions d = Decompose(csp, 1);
  DecompositionSolveStats stats;
  auto solution = SolveViaTreeDecomposition(csp, d.td, &stats);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
  EXPECT_GT(stats.bag_tuples, 0);
}

TEST(DecompositionSolvingTest, AustraliaViaGhd) {
  Csp csp = AustraliaMapColoring();
  Decompositions d = Decompose(csp, 2);
  auto solution = SolveViaGhd(csp, d.ghd);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
}

class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, AllSolversAgreeOnSatisfiability) {
  uint64_t seed = GetParam();
  Hypergraph h = RandomHypergraph(9, 10, 2, 3, seed * 13);
  for (double tightness : {0.15, 0.4}) {
    Csp csp =
        RandomCspFromHypergraph(h, 2, tightness, /*plant_solution=*/false,
                                seed * 7 + static_cast<uint64_t>(tightness * 10));
    bool direct = BacktrackingSolve(csp).has_value();
    Decompositions d = Decompose(csp, seed);
    auto td_solution = SolveViaTreeDecomposition(csp, d.td);
    auto ghd_solution = SolveViaGhd(csp, d.ghd);
    EXPECT_EQ(td_solution.has_value(), direct)
        << "TD seed " << seed << " t " << tightness;
    EXPECT_EQ(ghd_solution.has_value(), direct)
        << "GHD seed " << seed << " t " << tightness;
    if (td_solution.has_value()) {
      EXPECT_TRUE(csp.IsSolution(*td_solution));
    }
    if (ghd_solution.has_value()) {
      EXPECT_TRUE(csp.IsSolution(*ghd_solution));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreementTest, ::testing::Range(0, 12));

TEST(DecompositionSolvingTest, PlantedLargeInstanceSolvedViaTd) {
  // A 40-variable planted instance that plain backtracking can also solve,
  // but the decomposition path exercises big bag relations.
  Hypergraph h = Grid2DHypergraph(6);
  Csp csp = RandomCspFromHypergraph(h, 2, 0.6, /*plant_solution=*/true, 9);
  Decompositions d = Decompose(csp, 3);
  auto solution = SolveViaTreeDecomposition(csp, d.td);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
}

TEST(DecompositionSolvingTest, SatViaGhd) {
  Csp csp = SatCsp(5, {{-1, 2, 3}, {1, -4}, {-3, -5}});
  Decompositions d = Decompose(csp, 4);
  auto solution = SolveViaGhd(csp, d.ghd);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
}

TEST(DecompositionSolvingTest, UnsatDetected) {
  Csp csp = SatCsp(2, {{1}, {-1}});
  Decompositions d = Decompose(csp, 5);
  EXPECT_FALSE(SolveViaTreeDecomposition(csp, d.td).has_value());
  EXPECT_FALSE(SolveViaGhd(csp, d.ghd).has_value());
}

// Node p's relation the plain way: the lambda relations joined in order
// with Relation::Join, then projected onto chi once, at the end.
Relation LateProjectedBag(const Csp& csp, const Hypergraph& h,
                          const GeneralizedHypertreeDecomposition& complete,
                          int p) {
  std::vector<int> chi = complete.td().Bag(p).ToVector();
  const std::vector<int>& lambda = complete.Lambda(p);
  if (lambda.empty()) {
    Relation identity(chi);
    identity.AddTuple({});
    return identity;
  }
  auto edge_relation = [&csp, &h](int e) {
    if (e < csp.NumConstraints()) return csp.GetConstraint(e).relation;
    std::vector<int> vars = h.EdgeVertices(e);
    Relation r(vars);
    for (int val = 0; val < csp.DomainSize(vars[0]); ++val) r.AddTuple({val});
    return r;
  };
  Relation acc = edge_relation(lambda[0]);
  for (size_t i = 1; i < lambda.size(); ++i) {
    acc = acc.Join(edge_relation(lambda[i]));
  }
  return acc.Project(chi);
}

// Restores the unlimited memory budget however the test exits.
struct UnlimitedBudgetOnExit {
  ~UnlimitedBudgetOnExit() { SetMemoryBudget(0); }
};

TEST(DecompositionSolvingTest, GhdBagsEqualLateProjection) {
  // Early projection must not change a bag's schema, rows or row order,
  // at any thread count or memory budget; on the grid it must also join
  // fewer rows than the late-projected chain.
  struct Shape {
    std::string name;
    Csp csp;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"grid2d_4_d10",
                    RandomCspFromHypergraph(Grid2DHypergraph(4), 10, 0.4,
                                            /*plant_solution=*/true, 1)});
  shapes.push_back({"circuit_8_30_d3",
                    RandomCspFromHypergraph(CircuitHypergraph(8, 30, 6), 3,
                                            0.5, /*plant_solution=*/true, 2)});
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    shapes.push_back(
        {"random_" + std::to_string(seed),
         RandomCspFromHypergraph(RandomHypergraph(14, 11, 2, 4, seed * 17), 3,
                                 0.4, /*plant_solution=*/seed % 2 == 0,
                                 seed)});
  }
  metrics::Counter& rows_joined = metrics::GetCounter("relation.rows_joined");
  ThreadPool pool(4);
  UnlimitedBudgetOnExit restore;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const Csp& csp = shape.csp;
    Hypergraph h = csp.ConstraintHypergraph();
    GeneralizedHypertreeDecomposition ghd = Decompose(csp, 1).ghd;
    GeneralizedHypertreeDecomposition complete = ghd;
    complete.MakeComplete(h);

    SetMemoryBudget(0);
    const long ref_before = rows_joined.Value();
    std::vector<Relation> want;
    for (int p = 0; p < complete.NumNodes(); ++p) {
      want.push_back(LateProjectedBag(csp, h, complete, p));
    }
    const long ref_rows = rows_joined.Value() - ref_before;

    long first_rows = -1;
    for (long long budget : {0LL, 2LL << 10}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE("budget " + std::to_string(budget) +
                     (p == nullptr ? " serial" : " pool"));
        SetMemoryBudget(budget);
        const long before = rows_joined.Value();
        RelationTree tree = BuildRelationTreeFromGhd(csp, ghd, p);
        const long rows = rows_joined.Value() - before;
        ASSERT_EQ(tree.relations.size(), want.size());
        for (size_t n = 0; n < want.size(); ++n) {
          EXPECT_EQ(tree.relations[n].schema(), want[n].schema()) << n;
          EXPECT_EQ(tree.relations[n].Size(), want[n].Size()) << n;
          EXPECT_EQ(tree.relations[n].data(), want[n].data()) << n;
        }
        // rows_joined does not depend on the budget or the pool.
        if (first_rows == -1) first_rows = rows;
        EXPECT_EQ(rows, first_rows);
        if (shape.name == "grid2d_4_d10") {
          EXPECT_LT(rows, ref_rows);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hypertree
