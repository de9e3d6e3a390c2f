// Branch-and-bound treewidth (QuickBB / BB-tw style; thesis §4.4).
//
// Depth-first search over elimination orderings on a shared elimination
// graph with undo. Prunes with f = max(g, h, parent f) where g is the
// largest elimination degree on the path and h a minor-min-width lower
// bound of the remaining graph; applies simplicial / strongly-almost-
// simplicial reductions, pruning rule PR1 (remaining-size bound) and PR2
// (adjacent-swap symmetry breaking). It is BranchAndBoundOverOrderings
// (td/elimination_search.h) with the treewidth bag-cost policy
// (td/treewidth_search.cc), the same search BB-ghw runs.

#ifndef HYPERTREE_TD_BRANCH_AND_BOUND_H_
#define HYPERTREE_TD_BRANCH_AND_BOUND_H_

#include "graph/graph.h"
#include "td/exact.h"

namespace hypertree {

/// Computes the treewidth of `g` (exact if the budget allows; otherwise an
/// anytime lower/upper bound pair). As in BB-ghw, the search stops on its
/// max_nodes-th node tick, so it expands at most max_nodes - 1 nodes.
WidthResult BranchAndBoundTreewidth(const Graph& g,
                                    const SearchOptions& options = {});

}  // namespace hypertree

#endif  // HYPERTREE_TD_BRANCH_AND_BOUND_H_
