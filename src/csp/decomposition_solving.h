// Solving CSPs from tree decompositions and from complete generalized
// hypertree decompositions (thesis §2.4): materialize one subproblem
// relation per decomposition node, then run Yannakakis on the resulting
// join tree. Runtime O(n d^{w+1}) for a width-w tree decomposition and
// |I|^{k+1} log |I| for a width-k GHD.
//
// The builders here are the first stage of the one relation-tree
// pipeline (see csp/yannakakis.h): each materializes the node relations
// and roots the tree once into a TreeShape (children in ascending node
// id, a parent-first order). Solving then runs FullyReduce and the
// extraction, counting runs CountRelationTree, and CQ answering
// (cq/answer.h) builds its tree with the same GHD builder.
//
// All entry points take an optional ThreadPool: the per-node bag joins are
// independent and run in parallel, and the Yannakakis passes run each
// depth level of the tree in parallel (deterministic results for any
// thread count).

#ifndef HYPERTREE_CSP_DECOMPOSITION_SOLVING_H_
#define HYPERTREE_CSP_DECOMPOSITION_SOLVING_H_

#include <optional>
#include <vector>

#include "csp/csp.h"
#include "csp/yannakakis.h"
#include "ghd/ghd.h"
#include "td/tree_decomposition.h"

namespace hypertree {

class ThreadPool;

/// Work counters for the decomposition-based solvers.
struct DecompositionSolveStats {
  long bag_tuples = 0;      // tuples materialized across all bags
  int max_bag_tuples = 0;   // largest single bag relation
};

/// Join-tree-clustering solve: every decomposition bag becomes the
/// relation of all bag assignments consistent with the constraints whose
/// scope lies inside the bag. `td` must be a valid tree decomposition of
/// the CSP's constraint hypergraph.
std::optional<std::vector<int>> SolveViaTreeDecomposition(
    const Csp& csp, const TreeDecomposition& td,
    DecompositionSolveStats* stats = nullptr, ThreadPool* pool = nullptr);

/// GHD solve: the decomposition is completed (Lemma 2), every node's
/// relation is the join of its lambda constraint relations projected onto
/// chi, and Yannakakis finishes the job. `ghd` must be valid for the
/// CSP's constraint hypergraph.
std::optional<std::vector<int>> SolveViaGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    DecompositionSolveStats* stats = nullptr, ThreadPool* pool = nullptr);

/// Materializes the per-bag subproblem relations of `td` as a relation
/// tree (the join tree of the solution-equivalent acyclic CSP), rooted at
/// node 0. Shared by the solving and counting front ends. With a pool the
/// bags are solved in parallel.
RelationTree BuildRelationTreeFromTd(const Csp& csp,
                                     const TreeDecomposition& td,
                                     ThreadPool* pool = nullptr);

/// Materializes the per-node relations of a completed copy of `ghd` over
/// the CSP's edge relations (the constraints, then a domain relation per
/// constraint-free variable), in parallel when a pool is given.
RelationTree BuildRelationTreeFromGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    ThreadPool* pool = nullptr);

/// The GHD builder shared by CSP solving and CQ answering: node p of the
/// complete GHD `complete` gets pi_chi(p)(join of edge_relations[e] for e
/// in lambda(p)), the tree is rooted at node 0, and the bags are built in
/// parallel with a pool. Each bag (schema chi(p), rows and row order)
/// equals the projection of the full lambda join; intermediates follow
/// the morsel engine's memory budget (docs/SOLVING.md).
RelationTree BuildRelationTreeFromGhd(
    const GeneralizedHypertreeDecomposition& complete,
    const std::vector<const Relation*>& edge_relations, ThreadPool* pool);

/// The join tree (GYO) of an alpha-acyclic CSP, one node per edge of its
/// constraint hypergraph: each constraint's relation, then a domain
/// relation per constraint-free variable. Shared by SolveAcyclicCsp and
/// CountAcyclicCsp.
RelationTree BuildRelationTreeFromJoinTree(const Csp& csp);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_DECOMPOSITION_SOLVING_H_
