// A* search for treewidth (thesis ch. 5, algorithm A*-tw).
//
// Best-first search over partial elimination orderings with
// f = max(g, h, parent.f): g is the largest elimination degree so far and
// h a minor-min-width bound on the remaining graph. Because the remaining
// graph depends only on the *set* of eliminated vertices, states with
// equal sets are merged (duplicate detection), turning the n! ordering
// tree into the 2^n subset lattice. The f-values of visited states are
// nondecreasing, so an interrupted run still reports a proven lower bound
// (thesis §5.3). It is AStarOverOrderings (td/elimination_search.h) with
// the treewidth bag-cost policy (td/treewidth_search.cc), the same search
// A*-ghw runs.

#ifndef HYPERTREE_TD_ASTAR_H_
#define HYPERTREE_TD_ASTAR_H_

#include "graph/graph.h"
#include "td/exact.h"

namespace hypertree {

/// Computes the treewidth of `g` by A*; anytime bounds on budget
/// exhaustion (max_nodes caps the number of stored states).
WidthResult AStarTreewidth(const Graph& g, const SearchOptions& options = {});

}  // namespace hypertree

#endif  // HYPERTREE_TD_ASTAR_H_
