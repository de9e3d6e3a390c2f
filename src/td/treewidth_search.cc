// The treewidth bag-cost policy and its two searches, BB-tw (QuickBB
// style, thesis §4.4) and A*-tw (thesis ch. 5).

#include "bounds/lower_bounds.h"
#include "ordering/evaluator.h"
#include "td/astar.h"
#include "td/branch_and_bound.h"
#include "td/elimination_search.h"

namespace hypertree {

namespace {

// Prices a bag at |bag| - 1, the degree of the vertex being eliminated.
// The remainder is bounded by minor-min-width, one bag holding every
// remaining vertex costs `remaining - 1` (PR1), and a simplicial or
// strongly almost simplicial vertex may be eliminated next without loss.
class TreewidthCost {
 public:
  explicit TreewidthCost(const Graph& g) : g_(g) {}

  const Graph& primal() const { return g_; }
  bool exact() const { return true; }
  bool memoize() const { return false; }

  int StaticLowerBound(Rng* rng) const {
    return g_.NumVertices() == 0 ? 0 : TreewidthLowerBound(g_, rng);
  }
  int Width(const EliminationOrdering& sigma, Rng*) const {
    return EvaluateOrderingWidth(g_, sigma);
  }
  void ImproveWarmStart(EliminationOrdering*, int*, Rng*) const {}

  int BagCost(const EliminationGraph& eg, int v, Rng*) const {
    return eg.Degree(v);
  }
  int RemainderCost(const EliminationGraph& eg, Rng*) const {
    return eg.NumActive() - 1;
  }
  int RemainderBound(const EliminationGraph& eg, Rng* rng) const {
    return MinorMinWidthLowerBound(eg, rng);
  }
  int ForcedVertex(const EliminationGraph& eg, int f) const {
    for (int v = eg.ActiveBits().First(); v >= 0;
         v = eg.ActiveBits().Next(v)) {
      if (eg.IsSimplicial(v) ||
          (eg.Degree(v) <= f && eg.IsAlmostSimplicial(v, nullptr))) {
        return v;
      }
    }
    return -1;
  }

  void CheckWitness(const EliminationOrdering&) const {}

 private:
  const Graph& g_;
};

}  // namespace

WidthResult BranchAndBoundTreewidth(const Graph& g,
                                    const SearchOptions& options) {
  return BranchAndBoundOverOrderings(TreewidthCost(g), options, "bb_tw.nodes");
}

WidthResult AStarTreewidth(const Graph& g, const SearchOptions& options) {
  return AStarOverOrderings(TreewidthCost(g), options, "astar_tw.popped");
}

}  // namespace hypertree
