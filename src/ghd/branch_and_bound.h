// BB-ghw: branch and bound for generalized hypertree width (thesis ch. 8).
//
// Searches elimination orderings (complete for ghw by Theorem 3) with
// exact cached bag covers as step costs, the tw-ksc lower bound for
// pruning, a whole-remainder cover analog of PR1, and the PR2 swap rule.
// It is BranchAndBoundOverOrderings (td/elimination_search.h) with the ghw
// bag-cost policy (ghd/ghw_search.cc), the same search BB-tw runs.

#ifndef HYPERTREE_GHD_BRANCH_AND_BOUND_H_
#define HYPERTREE_GHD_BRANCH_AND_BOUND_H_

#include "ghd/ghw_from_ordering.h"
#include "hypergraph/hypergraph.h"
#include "td/exact.h"

namespace hypertree {

/// Extra knobs for the ghw searches.
struct GhwSearchOptions : SearchOptions {
  /// Bag covers inside the search: exact (Definition 17, default) or
  /// greedy (ablation: may overestimate bag costs and lose optimality).
  CoverMode cover_mode = CoverMode::kExact;
};

/// Computes ghw(h) (exact when cover_mode is kExact and the budget
/// suffices; otherwise anytime bounds).
WidthResult BranchAndBoundGhw(const Hypergraph& h,
                              const GhwSearchOptions& options = {});

}  // namespace hypertree

#endif  // HYPERTREE_GHD_BRANCH_AND_BOUND_H_
