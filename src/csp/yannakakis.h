// Yannakakis' algorithm (Acyclic Solving, Figure 2.4): semijoin reduction
// over a tree of relations, then top-down extraction of one consistent
// assignment. Runs in O(m * n log n): the polynomial-time "answer" for
// acyclic queries that all decomposition methods reduce to.
//
// This is the middle of the one relation-tree pipeline that CSP solving,
// counting and CQ answering share. A builder (csp/decomposition_solving.h)
// materializes the node relations and roots the tree once (TreeShape:
// children in ascending node id, a parent-first order); FullyReduce runs
// both semijoin passes, stopping after the bottom-up one when the root
// comes out empty; AcyclicSolve extracts, CountRelationTree counts and
// AnswerQuery enumerates, all from that one shape.
//
// Both passes are in-place semijoins on the morsel engine, and both
// can run each depth level of the tree in parallel over a ThreadPool: a
// node's bottom-up filter only reads its (already reduced) children, a
// node's top-down filter only reads its (already reduced) parent, so the
// result is bit-identical for any thread count (see
// src/csp/tree_schedule.h).

#ifndef HYPERTREE_CSP_YANNAKAKIS_H_
#define HYPERTREE_CSP_YANNAKAKIS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "csp/csp.h"
#include "csp/relation.h"
#include "csp/tree_schedule.h"

namespace hypertree {

class ThreadPool;

/// A tree of relations (e.g. a join tree with materialized constraint
/// relations, or decomposition bags with their subproblem solutions) and
/// its rooted shape, computed once when the tree is built.
struct RelationTree {
  std::vector<Relation> relations;  // one per node
  TreeShape shape;
};

/// Yannakakis' full reduction, in place: a bottom-up semijoin pass (each
/// node against its children, ascending id), then, unless it left the
/// root empty, a top-down pass (each node against its parent). Returns
/// false iff the root is empty: the tree has no consistent tuple
/// combination. A semijoin against an empty relation empties its left
/// side, so any node emptied bottom-up empties the root, and after a
/// true return every node is non-empty. With a pool, relations and
/// kernel counters are identical to a sequential run.
bool FullyReduce(RelationTree* tree, ThreadPool* pool = nullptr);

/// Full reduction, then greedy extraction in the shape's parent-first
/// order. Returns an assignment var -> value for every variable appearing
/// in some schema, or std::nullopt if the tree has no globally consistent
/// tuple combination. With a pool, the result is identical to the
/// sequential one.
std::optional<std::unordered_map<int, int>> AcyclicSolve(
    RelationTree tree, ThreadPool* pool = nullptr);

/// Convenience for acyclic CSPs: AcyclicSolve over the CSP's join tree
/// (BuildRelationTreeFromJoinTree). The CSP's constraint hypergraph must
/// be alpha-acyclic. Variables outside all constraints are assigned 0.
/// Returns a full assignment or std::nullopt.
std::optional<std::vector<int>> SolveAcyclicCsp(const Csp& csp,
                                                ThreadPool* pool = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_YANNAKAKIS_H_
