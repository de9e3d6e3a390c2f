// The ghw bag-cost policy and its two searches, BB-ghw (thesis ch. 8) and
// A*-ghw (thesis ch. 9).

#include <algorithm>

#include "bounds/ghw_lower_bounds.h"
#include "bounds/lower_bounds.h"
#include "ghd/astar.h"
#include "ghd/branch_and_bound.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/incidence_index.h"
#include "kernels/kernels.h"
#include "ordering/heuristics.h"
#include "td/elimination_search.h"

namespace hypertree {

namespace {

// Prices a bag by its exact or greedy edge cover. The remainder is
// bounded by tw-ksc, one greedy cover of the whole active set caps every
// remaining bag (covers are monotone under subsets), and an isolated
// vertex forms the bag {v} with cover 1 <= any width, so it is eliminated
// at once. The memos (use_decomp_cache) freeze each RNG-drawn bound at
// its first value, in either cover mode; with exact covers they include
// BB's transposition table.
class GhwCost {
 public:
  GhwCost(const Hypergraph& h, const GhwSearchOptions& opts)
      : h_(h),
        mode_(opts.cover_mode),
        memoize_(opts.use_decomp_cache),
        // One incidence index per instance, shared read-only by every
        // bag-cover candidate restriction.
        index_(h),
        eval_(h, &index_),
        bag_(h.NumVertices()) {}
  // eval_ points into index_.
  GhwCost(const GhwCost&) = delete;
  GhwCost& operator=(const GhwCost&) = delete;

  const Graph& primal() const { return eval_.primal(); }
  bool exact() const { return mode_ == CoverMode::kExact; }
  bool memoize() const { return memoize_; }

  int StaticLowerBound(Rng* rng) const { return GhwLowerBound(h_, rng); }
  int Width(const EliminationOrdering& sigma, Rng* rng) {
    return eval_.EvaluateOrdering(sigma, mode_, rng);
  }
  void ImproveWarmStart(EliminationOrdering* best, int* width, Rng* rng) {
    EliminationOrdering md = MinDegreeOrdering(eval_.primal(), rng);
    int w = Width(md, rng);
    if (w < *width) {
      *width = w;
      *best = std::move(md);
    }
  }

  int BagCost(const EliminationGraph& eg, int v, Rng* rng) {
    // Scratch bag: this runs once per child per node, and a temporary
    // NeighborBits() would dominate the search's allocations.
    bag_.AssignAnd(eg.RawNeighborBits(v), eg.ActiveBits());
    bag_.Set(v);
    return eval_.CoverBag(bag_, mode_, rng, nullptr);
  }
  int RemainderCost(const EliminationGraph& eg, Rng* rng) {
    return eval_.CoverBag(eg.ActiveBits(), CoverMode::kGreedy, rng, nullptr);
  }
  // tw-ksc on the remaining (filled) graph: a minor-min-width bound L
  // forces a remaining bag with >= L+1 vertices, and covering it needs
  // >= ceil((L+1)/r) edges, where r is the largest |edge ∩ active|
  // (thesis §8.1). The max-intersection scan is one kernel MaxIntersect
  // over the index's flat edge->vertex arena.
  int RemainderBound(const EliminationGraph& eg, Rng* rng) const {
    if (eg.NumActive() == 0) return 0;
    const int r = std::max(
        1, kernels::Active().MaxIntersect(
               index_.EdgeVarRows(), index_.EdgeVarStride(),
               index_.NumEdges(), eg.ActiveBits().Words(),
               eg.ActiveBits().NumWords()));
    int tw_lb = MinorMinWidthLowerBound(eg, rng);
    return std::max((tw_lb + r) / r, 1);
  }
  int ForcedVertex(const EliminationGraph& eg, int) const {
    for (int v = eg.ActiveBits().First(); v >= 0;
         v = eg.ActiveBits().Next(v)) {
      if (eg.Degree(v) == 0) return v;
    }
    return -1;
  }

  void CheckWitness(const EliminationOrdering& sigma) const {
    DValidateOrderingWitness(h_, sigma);
  }

 private:
  const Hypergraph& h_;
  CoverMode mode_;
  bool memoize_;
  IncidenceIndex index_;
  GhwEvaluator eval_;
  Bitset bag_;
};

}  // namespace

WidthResult BranchAndBoundGhw(const Hypergraph& h,
                              const GhwSearchOptions& options) {
  return BranchAndBoundOverOrderings(GhwCost(h, options), options,
                                     "bb_ghw.nodes");
}

WidthResult AStarGhw(const Hypergraph& h, const GhwSearchOptions& options) {
  return AStarOverOrderings(GhwCost(h, options), options, "astar_ghw.popped",
                            "astar_ghw.generated");
}

}  // namespace hypertree
