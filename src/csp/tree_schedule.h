// Deterministic parallel traversal of rooted trees over the shared
// ThreadPool. The Yannakakis passes, per-node bag joins and weighted
// counting all reduce to "visit every node, children before parents" (or
// the reverse): independent subtrees can run concurrently as long as the
// parent/child ordering is respected, and the result is schedule-
// independent because each visit only reads relations owned by already-
// visited nodes and writes its own.

#ifndef HYPERTREE_CSP_TREE_SCHEDULE_H_
#define HYPERTREE_CSP_TREE_SCHEDULE_H_

#include <functional>
#include <utility>
#include <vector>

namespace hypertree {

class ThreadPool;

/// A rooted tree over the nodes [0, n), oriented once by its constructor
/// (the one rooting function of the solvers): parent pointers, children
/// in ascending node id, and a parent-first (BFS) order. Every traversal,
/// pass and extraction reads this shape, so they all agree on one child
/// order.
class TreeShape {
 public:
  /// The empty tree (no nodes).
  TreeShape() = default;

  /// Roots the undirected tree `edges` over [0, num_nodes) at `root`.
  /// Fails (HT_CHECK) unless the edges form a single tree spanning every
  /// node. num_nodes == 0 gives the empty tree.
  TreeShape(int num_nodes, const std::vector<std::pair<int, int>>& edges,
            int root);

  int NumNodes() const { return static_cast<int>(parent_.size()); }
  int root() const { return root_; }
  /// -1 at the root.
  int parent(int node) const { return parent_[node]; }
  /// Ascending node id.
  const std::vector<int>& children(int node) const {
    return children_[node];
  }
  /// Parent-first: the BFS from the root, children in ascending id.
  const std::vector<int>& order() const { return order_; }

 private:
  int root_ = -1;
  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  std::vector<int> order_;
};

/// Calls visit(node) once per node with every child visited before its
/// parent. With a pool (> 1 thread) independent subtrees run in parallel;
/// `visit` must only touch node-owned state plus already-visited children.
/// pool == nullptr (or a 1-thread pool) runs sequentially in reverse
/// tree.order().
void RunTreeBottomUp(const TreeShape& tree, ThreadPool* pool,
                     const std::function<void(int)>& visit);

/// Calls visit(node) once per node with every parent visited before its
/// children (parallel across subtrees with a pool, tree.order()
/// otherwise).
void RunTreeTopDown(const TreeShape& tree, ThreadPool* pool,
                    const std::function<void(int)>& visit);

/// Calls visit(i) for i in [0, count) with no ordering constraint
/// (parallel with a pool, ascending order otherwise).
void RunForAll(int count, ThreadPool* pool,
               const std::function<void(int)>& visit);

/// Nestable data-parallel loop: calls visit(i) for i in [0, count) with
/// no ordering constraint, safe to call from *inside* a pool task
/// (unlike RunForAll, which drains the run with pool->Wait() and would
/// deadlock when the calling task itself counts as pending work). The
/// caller participates: it claims indices from a shared cursor alongside
/// helper tasks, so the loop always progresses even when every other
/// pool worker is busy. Helpers that wake after the cursor is exhausted
/// exit without touching visit. The morsel-engine within-bag
/// parallelism primitive.
void ParallelFor(int count, ThreadPool* pool,
                 const std::function<void(int)>& visit);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_TREE_SCHEDULE_H_
