#include "csp/tree_schedule.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

TreeShape::TreeShape(int num_nodes,
                     const std::vector<std::pair<int, int>>& edges,
                     int root) {
  if (num_nodes == 0) return;
  HT_CHECK(root >= 0 && root < num_nodes) << "tree shape: root " << root
                                          << " out of range";
  // n - 1 edges reaching all n nodes from the root form a single tree.
  HT_CHECK_EQ(edges.size(), static_cast<size_t>(num_nodes - 1))
      << "tree shape: not a single tree";
  std::vector<std::vector<int>> adj(num_nodes);
  for (auto [a, b] : edges) {
    HT_CHECK(a >= 0 && a < num_nodes && b >= 0 && b < num_nodes)
        << "tree shape: edge (" << a << ", " << b << ") out of range";
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  root_ = root;
  parent_.assign(num_nodes, -1);
  children_.resize(num_nodes);
  order_.reserve(num_nodes);
  std::vector<char> seen(num_nodes, 0);
  seen[root] = 1;
  order_.push_back(root);
  // BFS over sorted neighbor lists: a node's unseen neighbors when it is
  // dequeued are its children, so they come out in ascending id. When
  // the scan reaches the end of one level, every node of the next level
  // is queued and none deeper.
  size_t level_end = 1;
  for (size_t i = 0; i < order_.size(); ++i) {
    if (i == level_end) {
      level_begin_.push_back(static_cast<int>(i));
      level_end = order_.size();
    }
    const int p = order_[i];
    std::sort(adj[p].begin(), adj[p].end());
    for (int q : adj[p]) {
      if (seen[q]) continue;
      seen[q] = 1;
      parent_[q] = p;
      children_[p].push_back(q);
      order_.push_back(q);
    }
  }
  HT_CHECK_EQ(order_.size(), static_cast<size_t>(num_nodes))
      << "tree shape: not a single tree";
  level_begin_.push_back(num_nodes);
}

void RunTreeBottomUp(const TreeShape& tree, ThreadPool* pool,
                     const std::function<void(int)>& visit) {
  const std::vector<int>& order = tree.order();
  // Each level right to left, so a run on the caller is reverse order().
  for (int d = tree.NumLevels(); d-- > 0;) {
    const int begin = tree.level_begin()[d];
    const int end = tree.level_begin()[d + 1];
    ParallelFor(end - begin, pool,
                [&order, &visit, end](int i) { visit(order[end - 1 - i]); });
  }
}

void RunTreeTopDown(const TreeShape& tree, ThreadPool* pool,
                    const std::function<void(int)>& visit) {
  const std::vector<int>& order = tree.order();
  for (int d = 0; d < tree.NumLevels(); ++d) {
    const int begin = tree.level_begin()[d];
    ParallelFor(tree.level_begin()[d + 1] - begin, pool,
                [&order, &visit, begin](int i) { visit(order[begin + i]); });
  }
}

void ParallelFor(int count, ThreadPool* pool,
                 const std::function<void(int)>& visit) {
  if (count <= 0) return;
  if (pool == nullptr || pool->NumThreads() <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) visit(i);
    return;
  }
  // Shared by the caller and the helper tasks; shared_ptr ownership so a
  // helper that wakes after the caller returned still finds live state
  // (it sees the exhausted cursor and exits without calling visit).
  struct State {
    std::function<void(int)> fn;
    int count = 0;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->fn = visit;
  state->count = count;
  auto worker = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const int i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->count) return;
      s->fn(i);
      // acq_rel: the caller's predicate load must observe every fn(i)'s
      // writes once done reaches count.
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->count) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };
  const int helpers = std::min(pool->NumThreads(), count - 1);
  for (int h = 0; h < helpers; ++h) {
    pool->Submit([state, worker] { worker(state); });
  }
  // The caller claims indices too: progress never depends on a pool
  // worker being free (the loop may itself be running inside one).
  worker(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] {
    return state->done.load(std::memory_order_acquire) == state->count;
  });
}

}  // namespace hypertree
