// Alpha-acyclicity via GYO (Graham / Yu-Ozsoyoglu) reduction, and join-tree
// construction for acyclic hypergraphs.
//
// "Question: when can a conjunctive query be answered in polynomial time
// without any decomposition at all? Answer: when it is alpha-acyclic" — the
// base case of the width hierarchy (ghw(H) = 1 iff H is alpha-acyclic).

#ifndef HYPERTREE_HYPERGRAPH_ACYCLICITY_H_
#define HYPERTREE_HYPERGRAPH_ACYCLICITY_H_

#include <optional>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace hypertree {

/// A join tree of an acyclic hypergraph: one node per hyperedge; node e's
/// parent is parent[e] (-1 for the root). For every vertex of the
/// hypergraph, the nodes whose edges contain it form a connected subtree
/// (the join-tree connectedness condition, Definition 8).
struct JoinTree {
  int root = -1;
  std::vector<int> parent;  // parent[e] = parent edge id, -1 for root
};

class IncidenceIndex;

/// True iff `h` is alpha-acyclic (GYO reduction empties it).
bool IsAlphaAcyclic(const Hypergraph& h);

/// Same check reusing a caller-built incidence index (the GYO rules run
/// off incidence rows, so this skips the redundant index build — the
/// portfolio feature extractor calls it on its already-indexed instance).
bool IsAlphaAcyclic(const IncidenceIndex& index);

/// Builds a join tree if `h` is alpha-acyclic and connected enough to admit
/// one; returns std::nullopt for cyclic hypergraphs. Disconnected acyclic
/// hypergraphs get a join tree whose components are stitched under one root
/// (still a valid join tree: the stitched edges share no vertices).
std::optional<JoinTree> BuildJoinTree(const Hypergraph& h);

/// Checks the join-tree conditions for `jt` against `h` (used by tests).
bool ValidateJoinTree(const Hypergraph& h, const JoinTree& jt);

// --- Degrees of acyclicity ------------------------------------------------
//
// Berge-acyclic  =>  gamma-acyclic  =>  beta-acyclic  =>  alpha-acyclic.
// Alpha-acyclicity is the class query answering cares about (ghw = 1), but
// it is not hereditary; the stricter notions are. This library implements
// the endpoints of the hierarchy plus beta.

/// Berge-acyclicity: the bipartite incidence graph has no cycle — i.e. no
/// two hyperedges share two vertices and the edge intersection structure
/// is a forest.
bool IsBergeAcyclic(const Hypergraph& h);

/// Beta-acyclicity: every subhypergraph (subset of edges) is
/// alpha-acyclic. Decided in polynomial time by nest-point elimination
/// (Duris): a vertex is a nest point if the edges containing it form a
/// chain under inclusion; H is beta-acyclic iff repeatedly deleting nest
/// points (and empty edges) empties the vertex set.
bool IsBetaAcyclic(const Hypergraph& h);

}  // namespace hypertree

#endif  // HYPERTREE_HYPERGRAPH_ACYCLICITY_H_
