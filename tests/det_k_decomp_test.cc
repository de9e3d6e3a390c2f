#include "hd/det_k_decomp.h"

#include <chrono>

#include <gtest/gtest.h>

#include "ghd/branch_and_bound.h"
#include "graph/generators.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/generators.h"
#include "td/branch_and_bound.h"

namespace hypertree {
namespace {

TEST(DetKDecompTest, AcyclicHasHwOne) {
  Hypergraph h = RandomAcyclicHypergraph(10, 4, 2);
  ASSERT_TRUE(IsAlphaAcyclic(h));
  auto hd = DetKDecomp(h, 1);
  ASSERT_TRUE(hd.has_value());
  std::string why;
  EXPECT_TRUE(hd->IsValidFor(h, &why)) << why;
  EXPECT_LE(hd->Width(), 1);
}

TEST(DetKDecompTest, TriangleNeedsTwo) {
  Hypergraph h(3);
  h.AddEdge({0, 1});
  h.AddEdge({1, 2});
  h.AddEdge({0, 2});
  EXPECT_FALSE(DetKDecomp(h, 1).has_value());
  auto hd = DetKDecomp(h, 2);
  ASSERT_TRUE(hd.has_value());
  EXPECT_TRUE(hd->IsValidFor(h, nullptr));
}

TEST(DetKDecompTest, WitnessesAreValidHds) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Hypergraph h = RandomHypergraph(10, 9, 2, 4, seed * 7 + 3);
    WidthResult hw = HypertreeWidth(h);
    ASSERT_TRUE(hw.exact) << "seed " << seed;
    // The search reports its work (one budget tick per subproblem), and
    // the same work on every run.
    EXPECT_GT(hw.nodes, 0) << "seed " << seed;
    EXPECT_EQ(HypertreeWidth(h).nodes, hw.nodes) << "seed " << seed;
    bool aborted = false;
    auto hd = DetKDecomp(h, hw.upper_bound, SearchOptions{}, &aborted);
    ASSERT_TRUE(hd.has_value()) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(hd->IsValidFor(h, &why)) << "seed " << seed << ": " << why;
    EXPECT_LE(hd->Width(), hw.upper_bound);
  }
}

TEST(DetKDecompTest, HwSandwichedByGhw) {
  // ghw <= hw <= tw + 1 (the hierarchy HyperBench reports), and
  // hw <= 3*ghw + 1 (GLS); on these tiny instances usually hw == ghw or
  // ghw+1.
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Hypergraph h = RandomHypergraph(9, 8, 2, 4, seed * 11 + 5);
    WidthResult ghw = BranchAndBoundGhw(h);
    WidthResult hw = HypertreeWidth(h);
    WidthResult tw = BranchAndBoundTreewidth(h.PrimalGraph());
    ASSERT_TRUE(ghw.exact && hw.exact && tw.exact) << "seed " << seed;
    EXPECT_LE(ghw.upper_bound, hw.upper_bound) << "seed " << seed;
    EXPECT_LE(hw.upper_bound, tw.upper_bound + 1) << "seed " << seed;
    EXPECT_LE(hw.upper_bound, 3 * ghw.upper_bound + 1) << "seed " << seed;
    // hw is the least k det-k accepts: k = hw - 1 is refuted outright.
    if (hw.upper_bound > 1) {
      bool aborted = true;
      EXPECT_FALSE(DetKDecomp(h, hw.upper_bound - 1, SearchOptions{},
                              &aborted)
                       .has_value())
          << "seed " << seed;
      EXPECT_FALSE(aborted) << "seed " << seed;
    }
    // The memo-off reference search finds the same width.
    SearchOptions no_memo;
    no_memo.use_decomp_cache = false;
    WidthResult reference = HypertreeWidth(h, no_memo);
    ASSERT_TRUE(reference.exact) << "seed " << seed;
    EXPECT_EQ(reference.upper_bound, hw.upper_bound) << "seed " << seed;
  }
}

TEST(DetKDecompTest, DeadlineBoundsSeparatorEnumeration) {
  // On the 8x8 queens graph det-k starts at a large k whose separator
  // enumeration runs for seconds between two separator attempts; the
  // enumeration must poll the deadline itself.
  Hypergraph h = HypergraphFromGraph(QueensGraph(8));
  SearchOptions opts;
  opts.time_limit_seconds = 0.2;
  auto start = std::chrono::steady_clock::now();
  WidthResult hw = HypertreeWidth(h, opts);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_FALSE(hw.exact);
  EXPECT_LT(seconds, 0.45);
}

TEST(DetKDecompTest, GridHypertreeWidth) {
  // grid2d_3 (3x3 grid of binary constraints): hw = 2? At least it is
  // exactly computable and >= ghw = 2.
  Hypergraph h = Grid2DHypergraph(3);
  WidthResult hw = HypertreeWidth(h);
  ASSERT_TRUE(hw.exact);
  WidthResult ghw = BranchAndBoundGhw(h);
  ASSERT_TRUE(ghw.exact);
  EXPECT_GE(hw.upper_bound, ghw.upper_bound);
  EXPECT_LE(hw.upper_bound, ghw.upper_bound + 1);
}

TEST(DetKDecompTest, BudgetExhaustionReported) {
  Hypergraph h = Grid2DHypergraph(4);
  SearchOptions opts;
  opts.max_nodes = 5;
  bool aborted = false;
  auto hd = DetKDecomp(h, 2, opts, &aborted);
  if (!hd.has_value()) {
    EXPECT_TRUE(aborted);  // 5 ticks cannot decide this instance
  }
}

TEST(DetKDecompTest, SingleEdge) {
  Hypergraph h(4);
  h.AddEdge({0, 1, 2, 3});
  auto hd = DetKDecomp(h, 1);
  ASSERT_TRUE(hd.has_value());
  EXPECT_TRUE(hd->IsValidFor(h, nullptr));
  EXPECT_EQ(hd->Width(), 1);
}

}  // namespace
}  // namespace hypertree
