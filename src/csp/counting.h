// Counting all answers (complete consistent assignments) through
// decompositions: the weighted variant of Yannakakis' algorithm. Counting
// is output-independent — unlike enumeration it stays polynomial for
// bounded width even when there are exponentially many solutions.
//
// Each child's weights are summed per key code and multiplied into its
// parent's rows by the morsel engine (EngineWeightedSemijoin: the join's
// key codes and dense/hash table, morsel-parallel), and the bottom-up pass
// runs each depth level in parallel when given a ThreadPool
// (deterministic counts for any thread count).

#ifndef HYPERTREE_CSP_COUNTING_H_
#define HYPERTREE_CSP_COUNTING_H_

#include "csp/csp.h"
#include "csp/yannakakis.h"
#include "ghd/ghd.h"
#include "td/tree_decomposition.h"

namespace hypertree {

class ThreadPool;

/// Number of globally consistent tuple combinations of a relation tree
/// with the running-intersection property (= the size of the full join
/// when every node relation is duplicate-free).
long long CountRelationTree(const RelationTree& tree,
                            ThreadPool* pool = nullptr);

/// Number of solutions of `csp`, counted over a valid tree decomposition
/// of its constraint hypergraph.
long long CountViaTreeDecomposition(const Csp& csp,
                                    const TreeDecomposition& td,
                                    ThreadPool* pool = nullptr);

/// Number of solutions of `csp`, counted over a (completed) GHD of its
/// constraint hypergraph.
long long CountViaGhd(const Csp& csp,
                      const GeneralizedHypertreeDecomposition& ghd,
                      ThreadPool* pool = nullptr);

/// Number of solutions of an alpha-acyclic CSP via its join tree.
long long CountAcyclicCsp(const Csp& csp, ThreadPool* pool = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_COUNTING_H_
