// Branch-and-bound and A* over elimination orderings, written once for
// every width measure that prices the bags of an ordering (thesis ch. 3).
//
// An elimination ordering induces one bag per vertex: the vertex and its
// neighbours when it is eliminated. Treewidth prices a bag at |bag| - 1,
// ghw at the size of its (exact or greedy) edge cover, and each width is
// the minimum over orderings of the largest bag price (Theorem 3 for ghw).
// So one search space serves both measures. A BagCost policy brings the
// price and the bounds and reductions that go with it
// (td/treewidth_search.cc, ghd/ghw_search.cc); the two searches below own
// everything else: the budget, f = max(g, h, parent f) pruning, PR1/PR2,
// duplicate detection, the transposition table and memos, the metrics and
// the witness ordering. Each search runs on one thread, so its tables are
// flat maps without locks.
//
// The policy interface:
//
//   const Graph& primal() const      graph the orderings eliminate
//   bool exact() const               bag prices are exact, so g and f
//                                    values prove lower bounds
//   bool memoize() const             memoize RemainderBound (and, in BB,
//                                    RemainderCost) per search state; with
//                                    exact prices BB also keeps a
//                                    transposition table
//   int StaticLowerBound(Rng*)       lower bound on the whole instance
//   int Width(ordering, Rng*)        width of a complete ordering
//   void ImproveWarmStart(ordering*, int* width, Rng*)
//                                    BB only: further heuristic orderings
//                                    after min-fill
//   int BagCost(eg, v, Rng*)         price of eliminating active v next
//   int RemainderCost(eg, Rng*)      price of one bag holding every active
//                                    vertex; it caps every remaining bag
//                                    (PR1, and A*'s goal test)
//   int RemainderBound(eg, Rng*)     lower bound on the remaining width
//   int ForcedVertex(eg, f)          a vertex that may be eliminated next
//                                    without loss under cutoff f, or -1
//   void CheckWitness(ordering)      debug post-condition on the result
//
// Calls that take an Rng draw tie-breaks from the search's generator in
// the fixed order the searches make them, and a memo hit skips the draws,
// so every result is a deterministic function of (instance, options)
// until the wall clock or the cancellation token stops the search.

#ifndef HYPERTREE_TD_ELIMINATION_SEARCH_H_
#define HYPERTREE_TD_ELIMINATION_SEARCH_H_

#include <algorithm>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/elimination_graph.h"
#include "ordering/heuristics.h"
#include "search/decomp_cache.h"
#include "td/exact.h"
#include "util/bitset.h"
#include "util/flat_map.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hypertree {

namespace search_internal {

// The complete ordering that eliminates `eliminated` first, in order, and
// the remaining vertices after it in ascending id. Orderings list the
// first-eliminated vertex last.
inline EliminationOrdering OrderingFromPrefix(
    const std::vector<int>& eliminated, int n) {
  EliminationOrdering sigma(n);
  std::vector<bool> used(n, false);
  int pos = n - 1;
  for (int v : eliminated) {
    sigma[pos--] = v;
    used[v] = true;
  }
  for (int v = 0; v < n; ++v) {
    if (!used[v]) sigma[pos--] = v;
  }
  return sigma;
}

// The smallest g each eliminated set was reached with: BB's transposition
// table and A*'s duplicate table. Counts its hits, misses and inserts as
// det-k's subproblem memo does.
class BestGTable {
 public:
  // True (a hit) when `set` was already reached with a g' <= g; otherwise
  // records g as the set's best.
  bool DominatedOrInsert(const Bitset& set, int g) {
    auto [best, inserted] = best_g_.TryEmplace(set, g);
    if (!inserted && *best <= g) {
      ++stats_.hits;
      return true;
    }
    *best = g;
    ++stats_.misses;
    ++stats_.inserts;
    return false;
  }

  // True (a hit) when the set's best g is strictly below g. Never inserts.
  bool DominatedStrict(const Bitset& set, int g) {
    const int* best = best_g_.Find(set);
    const bool dominated = best != nullptr && *best < g;
    ++(dominated ? stats_.hits : stats_.misses);
    return dominated;
  }

  // The counters for WidthResult::cache_stats. Call once per search: it
  // also adds them to the decomp_cache.* registry counters, which the
  // shared DecompCache feeds probe by probe.
  DecompCacheStats Publish() const {
    AddDecompCacheMetrics(stats_);
    return stats_;
  }

 private:
  BitsetFlatMap<int> best_g_;
  DecompCacheStats stats_;
};

// The min-fill ordering and its width: both searches' first incumbent.
template <typename BagCost>
int MinFillWarmStart(BagCost& cost, Rng* rng, EliminationOrdering* best) {
  if (cost.primal().NumVertices() == 0) return 0;
  *best = MinFillOrdering(cost.primal(), rng);
  return cost.Width(*best, rng);
}

template <typename BagCost>
class BranchAndBound {
 public:
  BranchAndBound(BagCost& cost, const SearchOptions& opts,
                 const char* nodes_counter)
      : cost_(cost),
        opts_(opts),
        rng_(opts.seed),
        budget_(opts),
        eg_(cost.primal()),
        n_(cost.primal().NumVertices()),
        nodes_metric_(metrics::GetCounter(nodes_counter)) {}

  WidthResult Run() {
    WidthResult res;
    Timer timer;
    int lb = cost_.StaticLowerBound(&rng_);
    ub_ = MinFillWarmStart(cost_, &rng_, &best_);
    if (n_ > 0) cost_.ImproveWarmStart(&best_, &ub_, &rng_);
    if (opts_.initial_upper_bound > 0)
      ub_ = std::min(ub_, opts_.initial_upper_bound);
    if (n_ > 0 && lb < ub_) {
      child_scratch_.assign(n_ + 1, {});
      nb_scratch_.assign(n_ + 1, Bitset(n_));
      Dfs(/*g=*/0, /*f_parent=*/lb, /*prev_vertex=*/-1, Bitset(n_),
          /*parent_free=*/false);
    }
    res.upper_bound = ub_;
    res.exact = !budget_.Exceeded() && cost_.exact();
    res.lower_bound = res.exact ? ub_ : lb;
    res.nodes = nodes_;
    res.seconds = timer.ElapsedSeconds();
    res.best_ordering = best_;
    res.cache_stats = transposition_.Publish();
    cost_.CheckWitness(res.best_ordering);
    return res;
  }

 private:
  // Records a new incumbent witnessed by the current prefix.
  void Improve(int w) {
    ub_ = w;
    best_ = OrderingFromPrefix(prefix_, n_);
  }

  // `compute()` memoized per active set when the policy asks for it.
  template <typename F>
  int Memoized(BitsetFlatMap<int>* memo, F compute) {
    if (!cost_.memoize()) return compute();
    auto [slot, inserted] = memo->TryEmplace(eg_.ActiveBits(), -1);
    if (inserted) *slot = compute();
    return *slot;
  }

  void Dfs(int g, int f_parent, int prev_vertex, const Bitset& prev_nb,
           bool parent_free) {
    if (budget_.Tick()) return;
    ++nodes_;
    nodes_metric_.Increment();
    if (eg_.NumActive() == 0) {
      if (g < ub_) Improve(g);
      return;
    }
    // Transposition pruning: with exact prices g is a function of the
    // eliminated set, so reaching a set again with g >= the best recorded
    // entry cannot improve on what that visit already explored (its
    // subtree was only cut at f >= ub bounds that still hold). Greedy
    // g-values depend on the path and on RNG draws, so they get no table.
    if (cost_.memoize() && cost_.exact() &&
        transposition_.DominatedOrInsert(eg_.ActiveBits(), g)) {
      return;
    }
    // PR1: one bag holding the whole remainder caps every remaining bag,
    // so some completion has width max(g, rest).
    int rest = Memoized(&rest_memo_,
                        [this] { return cost_.RemainderCost(eg_, &rng_); });
    if (std::max(g, rest) < ub_) Improve(std::max(g, rest));
    if (rest <= g) return;  // no completion below can beat g

    int h = Memoized(&bound_memo_,
                     [this] { return cost_.RemainderBound(eg_, &rng_); });
    int f = std::max({g, h, f_parent});
    if (f >= ub_) return;

    int forced =
        opts_.use_simplicial_reduction ? cost_.ForcedVertex(eg_, f) : -1;
    // (cost, vertex) pairs, cheapest bag first; reused per depth so the
    // hot loop allocates nothing in steady state.
    std::vector<std::pair<int, int>>& children = child_scratch_[prefix_.size()];
    children.clear();
    if (forced >= 0) {
      children.emplace_back(cost_.BagCost(eg_, forced, &rng_), forced);
    } else {
      for (int v = eg_.ActiveBits().First(); v >= 0;
           v = eg_.ActiveBits().Next(v)) {
        // Bag prices can be exact covers, the expensive part of a node;
        // poll between them so cancellation latency stays bounded by one
        // (the poll reads the clock only every 16th call, so it stays
        // cheap beside a treewidth price).
        if (budget_.PollDeadline()) return;
        children.emplace_back(cost_.BagCost(eg_, v, &rng_), v);
      }
      // Stable insertion sort: equal prices keep ascending vertex order.
      for (size_t i = 1; i < children.size(); ++i) {
        std::pair<int, int> key = children[i];
        size_t j = i;
        for (; j > 0 && children[j - 1].first > key.first; --j) {
          children[j] = children[j - 1];
        }
        children[j] = key;
      }
    }

    for (const auto& [c, v] : children) {
      // PR2 (swap symmetry): if the previous step eliminated u with u and
      // v non-adjacent at that time, "..., u, v" and "..., v, u" have
      // equal width; keep only the one eliminating the smaller id first.
      if (opts_.use_pr2 && forced < 0 && parent_free && prev_vertex >= 0 &&
          v < prev_vertex && !prev_nb.Test(v)) {
        continue;
      }
      if (std::max(g, c) >= ub_) continue;
      // Per-depth slot: the child frame reads prev_nb before any deeper
      // frame writes its own (deeper) slot, and siblings overwrite only
      // after the previous child's subtree returned.
      Bitset& nb = nb_scratch_[prefix_.size()];
      nb.AssignAnd(eg_.RawNeighborBits(v), eg_.ActiveBits());
      prefix_.push_back(v);
      eg_.Eliminate(v);
      Dfs(std::max(g, c), f, v, nb, forced < 0);
      eg_.UndoElimination();
      prefix_.pop_back();
      if (budget_.Exceeded()) return;
    }
  }

  BagCost& cost_;
  const SearchOptions& opts_;
  Rng rng_;
  SearchBudget budget_;
  EliminationGraph eg_;
  int n_;
  metrics::Counter& nodes_metric_;
  int ub_ = 0;
  EliminationOrdering best_;
  std::vector<int> prefix_;  // eliminated vertices, in order
  long nodes_ = 0;
  std::vector<std::vector<std::pair<int, int>>> child_scratch_;
  std::vector<Bitset> nb_scratch_;
  BestGTable transposition_;
  BitsetFlatMap<int> rest_memo_;
  BitsetFlatMap<int> bound_memo_;
};

struct AStarState {
  Bitset eliminated;
  int parent = -1;  // arena index; -1 at the root
  int vertex = -1;  // vertex eliminated to reach this state
  int g = 0;
  int f = 0;
  int depth = 0;
};

struct AStarEntry {
  int f;
  int depth;
  long order;  // FIFO tie-break for determinism
  int index;
  bool operator<(const AStarEntry& o) const {
    // priority_queue is a max-heap; pop the smallest f first and, among
    // equals, the deepest state (thesis §5.3).
    if (f != o.f) return f > o.f;
    if (depth != o.depth) return depth < o.depth;
    return order > o.order;
  }
};

}  // namespace search_internal

/// Depth-first branch and bound over elimination prefixes on one
/// EliminationGraph with undo (QuickBB / BB-ghw, thesis §4.4 and ch. 8).
/// Exact when the budget suffices and the policy's prices are exact;
/// otherwise the incumbent and the static lower bound. `nodes_counter`
/// names the registry counter that counts expanded nodes.
template <typename BagCost>
WidthResult BranchAndBoundOverOrderings(BagCost&& cost,
                                        const SearchOptions& options,
                                        const char* nodes_counter) {
  return search_internal::BranchAndBound<std::remove_reference_t<BagCost>>(
             cost, options, nodes_counter)
      .Run();
}

/// Best-first search over elimination prefixes with f = max(g, h, parent
/// f) (A*-tw / A*-ghw, thesis ch. 5 and 9). The remaining graph depends
/// only on the *set* of eliminated vertices, so duplicate detection
/// merges states with equal sets, keeping the smallest g. Popped f values
/// are nondecreasing, so an interrupted run with exact prices reports the
/// largest popped f as a proven lower bound (thesis §5.3). max_nodes caps
/// the number of stored states. `popped_counter` (and, when non-null,
/// `generated_counter`) name the registry counters of expanded and stored
/// states.
template <typename BagCost>
WidthResult AStarOverOrderings(BagCost&& cost, const SearchOptions& options,
                               const char* popped_counter,
                               const char* generated_counter = nullptr) {
  using search_internal::AStarEntry;
  using search_internal::AStarState;
  Timer timer;
  WidthResult res;
  const int n = cost.primal().NumVertices();
  Rng rng(options.seed);
  SearchBudget budget(options);
  metrics::Counter& popped_metric = metrics::GetCounter(popped_counter);
  metrics::Counter* generated_metric =
      generated_counter != nullptr ? &metrics::GetCounter(generated_counter)
                                   : nullptr;

  int lb = cost.StaticLowerBound(&rng);
  int ub = search_internal::MinFillWarmStart(cost, &rng, &res.best_ordering);
  if (options.initial_upper_bound > 0)
    ub = std::min(ub, options.initial_upper_bound);
  if (n == 0 || lb >= ub) {
    res.lower_bound = res.upper_bound = ub;
    res.exact = true;
    res.seconds = timer.ElapsedSeconds();
    cost.CheckWitness(res.best_ordering);
    return res;
  }

  std::vector<AStarState> arena;
  std::priority_queue<AStarEntry> open;
  // Duplicate detection: the best g each eliminated set was reached with.
  // Dominated regenerations are dropped before they are stored, and
  // stale queue entries when they are popped.
  search_internal::BestGTable seen;
  // The remainder bound is the most expensive per-child computation and
  // the same child set is regenerated from many parents.
  BitsetFlatMap<int> bound_memo;
  long push_order = 0;

  arena.push_back({Bitset(n), /*parent=*/-1, /*vertex=*/-1, /*g=*/0,
                   /*f=*/lb, /*depth=*/0});
  open.push({lb, 0, push_order++, 0});
  if (options.use_duplicate_detection)
    seen.DominatedOrInsert(arena[0].eliminated, 0);

  EliminationGraph eg(cost.primal());
  auto rebuild = [&eg](const Bitset& eliminated) {
    while (eg.UndoDepth() > 0) eg.UndoElimination();
    for (int v = eliminated.First(); v >= 0; v = eliminated.Next(v)) {
      eg.Eliminate(v);
    }
  };
  // h of the state reached by eliminating `v` next.
  auto child_bound = [&](int v) {
    eg.Eliminate(v);
    int h = cost.RemainderBound(eg, &rng);
    eg.UndoElimination();
    return h;
  };

  long popped = 0;
  int best_f_seen = lb;
  int goal = -1;
  std::vector<int> children;  // reused across pops
  while (!open.empty()) {
    if ((popped & 31) == 0 && budget.PollDeadline()) break;
    if (budget.ExceedsNodeBudget(static_cast<long>(arena.size()))) break;
    AStarEntry top = open.top();
    open.pop();
    const AStarState& s = arena[top.index];
    if (options.use_duplicate_detection &&
        seen.DominatedStrict(s.eliminated, s.g)) {
      continue;  // stale: regenerated since with a smaller g
    }
    ++popped;
    popped_metric.Increment();
    best_f_seen = std::max(best_f_seen, s.f);
    rebuild(s.eliminated);
    // Goal: one bag holding the whole remainder costs at most g, so the
    // optimum through s is g.
    if (eg.NumActive() == 0 || cost.RemainderCost(eg, &rng) <= s.g) {
      goal = top.index;
      break;
    }

    children.clear();
    int forced =
        options.use_simplicial_reduction ? cost.ForcedVertex(eg, s.f) : -1;
    if (forced >= 0) {
      children.push_back(forced);
    } else {
      eg.ActiveBits().AppendTo(&children);
    }

    const int parent_index = top.index;
    const int parent_g = s.g;
    const int parent_f = s.f;
    const int depth = s.depth + 1;
    const Bitset parent_set = s.eliminated;  // copy: arena may reallocate
    for (int v : children) {
      // Bag prices can be exact covers; poll between them so cancellation
      // latency stays bounded by one (as in BB, a cheap poll).
      if (budget.PollDeadline()) break;
      int child_g = std::max(parent_g, cost.BagCost(eg, v, &rng));
      if (child_g >= ub) continue;
      Bitset child_set = parent_set;
      child_set.Set(v);
      int h;
      if (cost.memoize()) {
        auto [slot, inserted] = bound_memo.TryEmplace(child_set, -1);
        if (inserted) *slot = child_bound(v);
        h = *slot;
      } else {
        h = child_bound(v);
      }
      int f = std::max({child_g, h, parent_f});
      if (f >= ub) continue;
      if (options.use_duplicate_detection &&
          seen.DominatedOrInsert(child_set, child_g)) {
        continue;
      }
      arena.push_back({std::move(child_set), parent_index, v, child_g, f,
                       depth});
      if (generated_metric != nullptr) generated_metric->Increment();
      open.push({f, depth, push_order++, static_cast<int>(arena.size()) - 1});
    }
  }

  res.nodes = popped;
  res.cache_stats = seen.Publish();
  if (goal >= 0) {
    std::vector<int> path;
    for (int i = goal; arena[i].parent != -1; i = arena[i].parent) {
      path.push_back(arena[i].vertex);
    }
    std::reverse(path.begin(), path.end());  // elimination order
    res.best_ordering = search_internal::OrderingFromPrefix(path, n);
    res.upper_bound = arena[goal].g;
    res.exact = cost.exact();
    res.lower_bound = res.exact ? arena[goal].g : lb;
  } else if (budget.Exceeded()) {
    res.upper_bound = ub;
    res.lower_bound = cost.exact() ? best_f_seen : lb;
  } else {
    // Open list exhausted: every state with f < ub was expanded, so the
    // incumbent is optimal (when prices are exact).
    res.upper_bound = ub;
    res.exact = cost.exact();
    res.lower_bound = res.exact ? ub : lb;
  }
  res.seconds = timer.ElapsedSeconds();
  cost.CheckWitness(res.best_ordering);
  return res;
}

}  // namespace hypertree

#endif  // HYPERTREE_TD_ELIMINATION_SEARCH_H_
