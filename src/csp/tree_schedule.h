// Deterministic parallel traversal of rooted trees over the shared
// ThreadPool. The Yannakakis passes, per-node bag joins and weighted
// counting all reduce to "visit every node, children before parents" (or
// the reverse). The passes run one depth level at a time through
// ParallelFor: nodes on one level are independent, and every visit reads
// only nodes on levels that a previous ParallelFor already completed, so
// the result is schedule-independent.

#ifndef HYPERTREE_CSP_TREE_SCHEDULE_H_
#define HYPERTREE_CSP_TREE_SCHEDULE_H_

#include <functional>
#include <utility>
#include <vector>

namespace hypertree {

class ThreadPool;

/// A rooted tree over the nodes [0, n), oriented once by its constructor
/// (the one rooting function of the solvers): parent pointers, children
/// in ascending node id, a parent-first (BFS) order and where each depth
/// level starts in it. Every traversal, pass and extraction reads this
/// shape, so they all agree on one child order.
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
  /// order() lists the nodes by depth: level d (the root's is 0) is
  /// order()[level_begin()[d], level_begin()[d + 1]). NumLevels() + 1
  /// entries, the last one NumNodes().
  const std::vector<int>& level_begin() const { return level_begin_; }
  int NumLevels() const { return static_cast<int>(level_begin_.size()) - 1; }

 private:
  int root_ = -1;
  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  std::vector<int> order_;
  std::vector<int> level_begin_ = {0};
};

/// Calls visit(node) once per node with every child visited before its
/// parent: one ParallelFor per depth level, the deepest first. `visit`
/// must only touch node-owned state plus its (already visited) children.
/// pool == nullptr (or a 1-thread pool) runs on the caller in reverse
/// tree.order(). Safe to call from inside a pool task.
void RunTreeBottomUp(const TreeShape& tree, ThreadPool* pool,
                     const std::function<void(int)>& visit);

/// Calls visit(node) once per node with every parent visited before its
/// children: one ParallelFor per depth level, the root's first (on the
/// caller in tree.order() without a pool). Safe to call from inside a
/// pool task.
void RunTreeTopDown(const TreeShape& tree, ThreadPool* pool,
                    const std::function<void(int)>& visit);

/// The solvers' one parallel loop: calls visit(i) for i in [0, count)
/// with no ordering constraint and returns once every visit finished
/// (their writes are visible to the caller). Nestable: safe to call from
/// *inside* a pool task. The caller participates: it claims indices from
/// a shared cursor alongside helper tasks, so the loop always progresses
/// even when every other pool worker is busy. Helpers that wake after the
/// cursor is exhausted exit without touching visit. pool == nullptr (or
/// a 1-thread pool) runs in ascending order on the caller.
void ParallelFor(int count, ThreadPool* pool,
                 const std::function<void(int)>& visit);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_TREE_SCHEDULE_H_
