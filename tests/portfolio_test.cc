// Portfolio layer tests: feature extraction on known generator families,
// routing rules and budget splits, result correctness against the exact
// solvers, the witness invariant, and — the load-bearing property — racing
// determinism: identical winner/width/witness for every --threads value.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ghd/branch_and_bound.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "hypergraph/incidence_index.h"
#include "portfolio/features.h"
#include "portfolio/portfolio.h"
#include "portfolio/router.h"

namespace hypertree {
namespace {

TEST(InstanceFeaturesTest, CliqueFamily) {
  Hypergraph h = CliqueHypergraph(8);  // binary edges on K8
  IncidenceIndex index(h);
  InstanceFeatures f = ExtractFeatures(index);
  EXPECT_EQ(f.num_vertices, 8);
  EXPECT_EQ(f.num_edges, 28);
  EXPECT_EQ(f.max_arity, 2);
  EXPECT_DOUBLE_EQ(f.mean_arity, 2.0);
  EXPECT_EQ(f.max_degree, 7);
  EXPECT_EQ(f.max_intersection, 1);  // binary edges share at most one vertex
  EXPECT_DOUBLE_EQ(f.primal_density, 1.0);
  EXPECT_FALSE(f.alpha_acyclic);
  EXPECT_EQ(f.arity_histogram[1], 28);  // bucket 1 counts arity-2 edges
  EXPECT_EQ(f.arity_histogram[0], 0);
}

TEST(InstanceFeaturesTest, AcyclicAndCycleFamilies) {
  {
    Hypergraph h = RandomAcyclicHypergraph(20, 4, 3);
    IncidenceIndex index(h);
    InstanceFeatures f = ExtractFeatures(index);
    EXPECT_TRUE(f.alpha_acyclic);
    EXPECT_EQ(f.num_vertices, h.NumVertices());
    EXPECT_EQ(f.num_edges, h.NumEdges());
  }
  {
    Hypergraph h = CycleHypergraph(10, 2);
    IncidenceIndex index(h);
    InstanceFeatures f = ExtractFeatures(index);
    EXPECT_FALSE(f.alpha_acyclic);
    EXPECT_EQ(f.max_arity, 2);
    EXPECT_EQ(f.max_intersection, 1);  // consecutive cycle edges overlap in 1
    EXPECT_EQ(f.max_degree, 2);
  }
}

TEST(RouterTest, RulesAndBudgetSplit) {
  InstanceFeatures f;
  f.alpha_acyclic = true;
  EXPECT_EQ(RouteInstance(f).rule, "acyclic");
  ASSERT_EQ(RouteInstance(f).lineup.size(), 1u);
  EXPECT_EQ(RouteInstance(f).lineup[0].kind, EngineKind::kDetK);

  f.alpha_acyclic = false;
  f.max_intersection = 2;
  f.max_arity = 3;
  RoutingPlan plan = RouteInstance(f, 160000);
  EXPECT_EQ(plan.rule, "bounded-intersection");
  ASSERT_GE(plan.lineup.size(), 2u);
  // BB leads every non-acyclic lineup: det-k can only prove ghw when the
  // static lower bound is tight, so it never gets the lead budget.
  EXPECT_EQ(plan.lineup[0].kind, EngineKind::kBbGhw);
  EXPECT_EQ(plan.lineup[0].max_nodes, 80000);  // lead: half the budget
  for (size_t i = 1; i < plan.lineup.size(); ++i) {
    EXPECT_EQ(plan.lineup[i].max_nodes, 10000);  // followers: a sixteenth
  }

  // Tiny budgets hit the per-engine floor instead of starving followers.
  RoutingPlan tiny = RouteInstance(f, 100);
  for (const EngineSpec& spec : tiny.lineup) {
    EXPECT_EQ(spec.max_nodes, 1024);
  }

  // No budget: engines stay unlimited.
  RoutingPlan unlimited = RouteInstance(f);
  for (const EngineSpec& spec : unlimited.lineup) {
    EXPECT_EQ(spec.max_nodes, 0);
  }
}

TEST(PortfolioTest, KnownFamilies) {
  struct Case {
    Hypergraph h;
    int ghw;
  };
  std::vector<Case> cases;
  cases.push_back({RandomAcyclicHypergraph(12, 4, 1), 1});
  cases.push_back({CycleHypergraph(8, 2), 2});
  cases.push_back({CliqueHypergraph(6), 3});
  for (Case& c : cases) {
    PortfolioOptions opts;
    opts.max_nodes = 50000;
    PortfolioResult pr = PortfolioGhw(c.h, opts);
    EXPECT_TRUE(pr.result.exact) << c.h.name();
    EXPECT_EQ(pr.result.upper_bound, c.ghw) << c.h.name();
    // Witness invariant: the reported ordering evaluates to the width.
    GhwEvaluator eval(c.h);
    EXPECT_EQ(eval.EvaluateOrdering(pr.result.best_ordering, CoverMode::kExact),
              pr.result.upper_bound)
        << c.h.name();
  }
}

TEST(PortfolioTest, AgreesWithBranchAndBound) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Hypergraph h = RandomHypergraph(10, 10, 2, 4, seed * 13 + 1);
    WidthResult bb = BranchAndBoundGhw(h);
    ASSERT_TRUE(bb.exact) << h.name();
    PortfolioOptions opts;
    opts.max_nodes = 200000;
    PortfolioResult pr = PortfolioGhw(h, opts);
    EXPECT_TRUE(pr.result.exact) << h.name();
    EXPECT_EQ(pr.result.upper_bound, bb.upper_bound) << h.name();
  }
}

// The acceptance property: the verdict — winner, width, exactness, node
// count, and the witness ordering itself — is bit-identical whether the
// race runs on 1, 4, or 8 threads, with node budgets doing the limiting
// (the generous wall-clock backstop never fires).
TEST(PortfolioTest, RacingDeterminismAcrossThreadCounts) {
  int proved_races = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Hypergraph h = RandomHypergraph(12, 12, 2, 4, seed * 29 + 3);
    PortfolioResult ref;
    for (int pass = 0; pass < 3; ++pass) {
      const int threads[] = {1, 4, 8};
      PortfolioOptions opts;
      opts.threads = threads[pass];
      opts.max_nodes = 30000;
      opts.time_limit_seconds = 300.0;
      PortfolioResult pr = PortfolioGhw(h, opts);
      // The supersede rule: a prover cancels only higher-indexed engines,
      // so nothing at or below the winner is cancelled, and a proof
      // leaves a cancel latency.
      for (int i = 0; i <= pr.winner; ++i) {
        EXPECT_FALSE(pr.engines[i].cancelled) << h.name() << " engine " << i;
      }
      if (pr.winner >= 0 && pr.engines[pr.winner].proved) {
        ++proved_races;
        EXPECT_GE(pr.cancel_latency_seconds, 0) << h.name();
      }
      if (pass == 0) {
        ref = pr;
        continue;
      }
      EXPECT_EQ(pr.winner, ref.winner) << h.name();
      EXPECT_EQ(pr.winner_name, ref.winner_name) << h.name();
      EXPECT_EQ(pr.result.upper_bound, ref.result.upper_bound) << h.name();
      EXPECT_EQ(pr.result.lower_bound, ref.result.lower_bound) << h.name();
      EXPECT_EQ(pr.result.exact, ref.result.exact) << h.name();
      EXPECT_EQ(pr.result.nodes, ref.result.nodes) << h.name();
      EXPECT_EQ(pr.result.best_ordering, ref.result.best_ordering) << h.name();
      EXPECT_EQ(pr.plan.rule, ref.plan.rule) << h.name();
    }
  }
  EXPECT_GT(proved_races, 0);
}

// Same property on an instance the race cannot close: with a tiny node
// budget nobody proves, and the no-winner verdict (best witnessed width,
// summed nodes) must still be schedule-invariant.
TEST(PortfolioTest, NoWinnerVerdictIsDeterministic) {
  Hypergraph h = CircuitHypergraph(5, 20, 4);
  PortfolioResult ref;
  for (int pass = 0; pass < 3; ++pass) {
    const int threads[] = {1, 4, 8};
    PortfolioOptions opts;
    opts.threads = threads[pass];
    opts.max_nodes = 2000;
    opts.time_limit_seconds = 300.0;
    PortfolioResult pr = PortfolioGhw(h, opts);
    GhwEvaluator eval(h);
    EXPECT_EQ(eval.EvaluateOrdering(pr.result.best_ordering, CoverMode::kExact),
              pr.result.upper_bound);
    if (pass == 0) {
      ref = pr;
      continue;
    }
    EXPECT_EQ(pr.winner, ref.winner);
    EXPECT_EQ(pr.result.upper_bound, ref.result.upper_bound);
    EXPECT_EQ(pr.result.lower_bound, ref.result.lower_bound);
    EXPECT_EQ(pr.result.nodes, ref.result.nodes);
    EXPECT_EQ(pr.result.best_ordering, ref.result.best_ordering);
  }
}

TEST(PortfolioTest, EdgelessInstance) {
  Hypergraph h(3);
  PortfolioResult pr = PortfolioGhw(h);
  EXPECT_TRUE(pr.result.exact);
  EXPECT_EQ(pr.winner_name, "prologue");
}

}  // namespace
}  // namespace hypertree
