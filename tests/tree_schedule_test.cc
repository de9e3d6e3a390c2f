// Direct tests of the tree schedulers (src/csp/tree_schedule.h): the
// depth levels of TreeShape, the visit order of RunTreeBottomUp and
// RunTreeTopDown, and nesting on one pool. Every case runs on a path, a
// star, a root with one deep chain plus many leaves, and random trees,
// with no pool and with pools of 1, 2 and 4 threads.

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "csp/tree_schedule.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

using Edges = std::vector<std::pair<int, int>>;

struct NamedTree {
  std::string name;
  TreeShape shape;
};

std::vector<NamedTree> Trees() {
  std::vector<NamedTree> out;
  Edges path;
  for (int v = 1; v < 24; ++v) path.emplace_back(v - 1, v);
  out.push_back({"path", TreeShape(24, path, /*root=*/0)});
  out.push_back({"path_mid_root", TreeShape(24, path, /*root=*/11)});
  Edges star;
  for (int v = 1; v < 33; ++v) star.emplace_back(0, v);
  out.push_back({"star", TreeShape(33, star, /*root=*/0)});
  out.push_back({"star_leaf_root", TreeShape(33, star, /*root=*/5)});
  // Root 0 with a chain 1..12 below it and 40 leaves beside the chain.
  Edges broom = {{0, 1}};
  for (int v = 2; v <= 12; ++v) broom.emplace_back(v - 1, v);
  for (int v = 13; v < 53; ++v) broom.emplace_back(0, v);
  out.push_back({"chain_and_leaves", TreeShape(53, broom, /*root=*/0)});
  out.push_back({"single", TreeShape(1, {}, /*root=*/0)});
  Rng rng(2024);
  for (int t = 0; t < 12; ++t) {
    const int n = 1 + rng.UniformInt(80);
    Edges edges;
    for (int v = 1; v < n; ++v) edges.emplace_back(rng.UniformInt(v), v);
    out.push_back({"random_" + std::to_string(t),
                   TreeShape(n, edges, rng.UniformInt(n))});
  }
  return out;
}

// nullptr plus pools of 1, 2 and 4 threads.
struct Pools {
  ThreadPool one{1};
  ThreadPool two{2};
  ThreadPool four{4};
  std::vector<ThreadPool*> All() { return {nullptr, &one, &two, &four}; }
};

std::string Label(const NamedTree& t, ThreadPool* pool) {
  return t.name + " threads=" +
         std::to_string(pool == nullptr ? 0 : pool->NumThreads());
}

// Per-node visit bookkeeping shared by the visiting threads.
struct Visits {
  explicit Visits(int n) : count(n), finished(n) {}
  std::vector<std::atomic<int>> count;
  std::vector<std::atomic<int>> finished;
  std::atomic<int> out_of_order{0};
};

TEST(TreeScheduleTest, LevelsPartitionOrderByDepth) {
  for (const NamedTree& t : Trees()) {
    const TreeShape& s = t.shape;
    std::vector<int> depth(s.NumNodes(), 0);
    int max_depth = 0;
    for (int node : s.order()) {
      if (s.parent(node) >= 0) depth[node] = depth[s.parent(node)] + 1;
      max_depth = std::max(max_depth, depth[node]);
    }
    ASSERT_EQ(s.NumLevels(), max_depth + 1) << t.name;
    ASSERT_EQ(s.level_begin().front(), 0) << t.name;
    ASSERT_EQ(s.level_begin().back(), s.NumNodes()) << t.name;
    for (int d = 0; d < s.NumLevels(); ++d) {
      ASSERT_LT(s.level_begin()[d], s.level_begin()[d + 1]) << t.name;
      for (int i = s.level_begin()[d]; i < s.level_begin()[d + 1]; ++i) {
        EXPECT_EQ(depth[s.order()[i]], d) << t.name << " position " << i;
      }
    }
  }
  EXPECT_EQ(TreeShape().NumLevels(), 0);
  EXPECT_EQ(TreeShape().level_begin(), std::vector<int>{0});
}

TEST(TreeScheduleTest, BottomUpVisitsEachNodeOnceAfterItsChildren) {
  Pools pools;
  for (const NamedTree& t : Trees()) {
    for (ThreadPool* pool : pools.All()) {
      const TreeShape& s = t.shape;
      Visits v(s.NumNodes());
      RunTreeBottomUp(s, pool, [&s, &v](int node) {
        for (int c : s.children(node)) {
          if (v.finished[c].load(std::memory_order_acquire) == 0) {
            v.out_of_order.fetch_add(1, std::memory_order_relaxed);
          }
        }
        v.count[node].fetch_add(1, std::memory_order_relaxed);
        v.finished[node].store(1, std::memory_order_release);
      });
      EXPECT_EQ(v.out_of_order.load(std::memory_order_relaxed), 0)
          << Label(t, pool);
      for (int i = 0; i < s.NumNodes(); ++i) {
        EXPECT_EQ(v.count[i].load(std::memory_order_relaxed), 1)
            << Label(t, pool) << " node " << i;
      }
    }
  }
}

TEST(TreeScheduleTest, TopDownVisitsEachNodeOnceAfterItsParent) {
  Pools pools;
  for (const NamedTree& t : Trees()) {
    for (ThreadPool* pool : pools.All()) {
      const TreeShape& s = t.shape;
      Visits v(s.NumNodes());
      RunTreeTopDown(s, pool, [&s, &v](int node) {
        const int p = s.parent(node);
        if (p >= 0 && v.finished[p].load(std::memory_order_acquire) == 0) {
          v.out_of_order.fetch_add(1, std::memory_order_relaxed);
        }
        v.count[node].fetch_add(1, std::memory_order_relaxed);
        v.finished[node].store(1, std::memory_order_release);
      });
      EXPECT_EQ(v.out_of_order.load(std::memory_order_relaxed), 0)
          << Label(t, pool);
      for (int i = 0; i < s.NumNodes(); ++i) {
        EXPECT_EQ(v.count[i].load(std::memory_order_relaxed), 1)
            << Label(t, pool) << " node " << i;
      }
    }
  }
}

// Without a pool both passes run on the caller in the documented orders.
TEST(TreeScheduleTest, SerialOrdersFollowTreeOrder) {
  for (const NamedTree& t : Trees()) {
    const std::vector<int>& order = t.shape.order();
    std::vector<int> seen;
    RunTreeBottomUp(t.shape, nullptr,
                    [&seen](int node) { seen.push_back(node); });
    EXPECT_EQ(seen, std::vector<int>(order.rbegin(), order.rend())) << t.name;
    seen.clear();
    RunTreeTopDown(t.shape, nullptr,
                   [&seen](int node) { seen.push_back(node); });
    EXPECT_EQ(seen, order) << t.name;
  }
}

// A visit may run its own ParallelFor on the pool that runs the pass.
TEST(TreeScheduleTest, NestedParallelForInsideVisitCompletes) {
  constexpr int kInner = 16;
  Pools pools;
  for (const NamedTree& t : Trees()) {
    for (ThreadPool* pool : pools.All()) {
      const TreeShape& s = t.shape;
      std::vector<long> sums(s.NumNodes(), 0);
      auto visit = [&sums, pool](int node) {
        std::vector<long> parts(kInner, 0);
        ParallelFor(kInner, pool,
                    [&parts, node](int i) { parts[i] = node + i; });
        for (long x : parts) sums[node] += x;
      };
      RunTreeBottomUp(s, pool, visit);
      RunTreeTopDown(s, pool, visit);
      for (int node = 0; node < s.NumNodes(); ++node) {
        const long once = kInner * static_cast<long>(node) +
                          kInner * (kInner - 1) / 2;
        EXPECT_EQ(sums[node], 2 * once) << Label(t, pool) << " node " << node;
      }
    }
  }
}

// The passes never wait on the whole pool, so they also run from inside a
// task of the pool they use.
TEST(TreeScheduleTest, PassesRunInsideAPoolTask) {
  Pools pools;
  for (const NamedTree& t : Trees()) {
    for (ThreadPool* pool : pools.All()) {
      if (pool == nullptr) continue;
      const TreeShape& s = t.shape;
      std::atomic<int> visited{0};
      auto visit = [&visited](int) {
        visited.fetch_add(1, std::memory_order_relaxed);
      };
      pool->Submit([&s, pool, &visit] {
        RunTreeBottomUp(s, pool, visit);
        RunTreeTopDown(s, pool, visit);
      });
      pool->Wait();
      EXPECT_EQ(visited.load(std::memory_order_relaxed), 2 * s.NumNodes())
          << Label(t, pool);
    }
  }
}

}  // namespace
}  // namespace hypertree
