// A*-ghw: A* search for generalized hypertree width (thesis ch. 9).
//
// Same state space as BB-ghw (elimination prefixes, exact bag covers as
// step costs) explored best-first with f = max(g, h, parent.f); duplicate
// detection merges states with equal eliminated sets. Popped f-values are
// nondecreasing, so interrupted runs report proven ghw lower bounds. It is
// AStarOverOrderings (td/elimination_search.h) with the ghw bag-cost
// policy (ghd/ghw_search.cc), the same search A*-tw runs.

#ifndef HYPERTREE_GHD_ASTAR_H_
#define HYPERTREE_GHD_ASTAR_H_

#include "ghd/branch_and_bound.h"
#include "hypergraph/hypergraph.h"
#include "td/exact.h"

namespace hypertree {

/// Computes ghw(h) by A*; anytime bounds on budget exhaustion.
WidthResult AStarGhw(const Hypergraph& h, const GhwSearchOptions& options = {});

}  // namespace hypertree

#endif  // HYPERTREE_GHD_ASTAR_H_
