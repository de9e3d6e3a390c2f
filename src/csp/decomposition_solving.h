// Solving CSPs from tree decompositions and from complete generalized
// hypertree decompositions (thesis §2.4): materialize one subproblem
// relation per decomposition node, then run Yannakakis on the resulting
// join tree. Runtime O(n d^{w+1}) for a width-w tree decomposition and
// |I|^{k+1} log |I| for a width-k GHD.
//
// All entry points take an optional ThreadPool: the per-node bag joins are
// independent and run in parallel, and the Yannakakis passes parallelize
// across subtrees (deterministic results for any thread count).

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
/// tree (the join tree of the solution-equivalent acyclic CSP). Shared by
/// the solving and counting front ends. With a pool the bags are solved
/// in parallel.
RelationTree BuildRelationTreeFromTd(const Csp& csp,
                                     const TreeDecomposition& td,
                                     ThreadPool* pool = nullptr);

/// Materializes the per-node relations of a (completed copy of) `ghd`,
/// in parallel when a pool is given.
RelationTree BuildRelationTreeFromGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    ThreadPool* pool = nullptr);

/// One GHD node's relation pi_chi(join of `lambda`), the bag materializer
/// shared by GHD solving and CQ answering. The chain joins the relations
/// in lambda order and, before each join, projects away the columns that
/// neither `chi` nor a relation still to come holds; the bag (schema
/// `chi`, rows and row order) equals that of projecting the full join.
/// An empty `lambda` is legal only for an empty `chi` and yields the
/// identity relation (one empty tuple). Intermediates follow the memory
/// budget of the morsel engine (docs/SOLVING.md); the bag is resident.
Relation MaterializeBag(const std::vector<const Relation*>& lambda,
                        const std::vector<int>& chi, ThreadPool* pool);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_DECOMPOSITION_SOLVING_H_
