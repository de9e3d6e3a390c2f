#include "hd/det_k_decomp.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bounds/ghw_lower_bounds.h"
#include "hypergraph/incidence_index.h"
#include "kernels/kernels.h"
#include "search/decomp_cache.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hypertree {

namespace {

// The per-edge-set VarsOfEdges memo is bounded so adversarial instances
// (exponentially many distinct components) cannot grow it without limit;
// at the cap the whole memo is dropped (deterministic, and the hot keys
// repopulate immediately).
constexpr size_t kVarsMemoMaxEntries = 1 << 16;

// Registry counters for the observability layer; resolved once, bumped
// with relaxed atomics on the hot paths.
metrics::Counter& DecomposeCallsMetric() {
  static metrics::Counter& c = metrics::GetCounter("detk.decompose_calls");
  return c;
}
metrics::Counter& SeparatorAttemptsMetric() {
  static metrics::Counter& c = metrics::GetCounter("detk.separator_attempts");
  return c;
}
metrics::Counter& SpliceMetric() {
  static metrics::Counter& c = metrics::GetCounter("detk.cache_splices");
  return c;
}
metrics::Counter& RootTasksMetric() {
  static metrics::Counter& c = metrics::GetCounter("detk.root_tasks");
  return c;
}
metrics::Counter& VarsMemoHitsMetric() {
  static metrics::Counter& c = metrics::GetCounter("detk.vars_memo_hits");
  return c;
}
metrics::Counter& VarsMemoEvictionsMetric() {
  static metrics::Counter& c = metrics::GetCounter("detk.vars_memo_evictions");
  return c;
}
metrics::Counter& ScratchBytesMetric() {
  static metrics::Counter& c =
      metrics::GetCounter("detk.scratch_bytes_allocated");
  return c;
}

// Read-only problem description shared by all search workers. The
// incidence index is immutable, so sharing it across pool threads is
// race-free by construction.
struct DetKContext {
  const Hypergraph& h;
  const IncidenceIndex& index;
  int k;
  int n;
  int m;
  DecompCache* cache;  // nullptr: shared memoization disabled
};

// One det-k search worker. Workers own their node arrays, their
// VarsOfEdges memo and their scratch arena; the (component, connector, k)
// cache and the budget's tick counter are shared through DetKContext /
// SearchBudget. All enumeration orders are deterministic functions of the
// subproblem, so every worker that solves a subproblem positively records
// the *same* witness subtree — which is what makes sharing positive
// entries across threads result-deterministic.
//
// Steady-state allocation discipline: every set the separator-enumeration
// recursion manipulates (scopes, separator vertex unions, connectors,
// component edge sets, candidate lists) lives in a per-depth scratch
// frame that is constructed once and reused; slot construction is the
// only heap traffic and is counted in detk.scratch_bytes_allocated, which
// plateaus once the search reaches its maximum recursion depth.
class DetKWorker {
 public:
  DetKWorker(const DetKContext& ctx, SearchBudget budget,
             std::function<bool()> superseded = nullptr)
      : ctx_(ctx),
        budget_(std::move(budget)),
        superseded_(std::move(superseded)) {
    splitter_.Attach(&ctx.index);
    cand_gen_.Attach(&ctx.index);
  }

  bool aborted() const { return aborted_; }

  // True when the abort came from the superseded check (a lower-index
  // root task already succeeded), not from the budget.
  bool superseded_abort() const { return superseded_abort_; }

  // Tries to decompose `comp` under connecting vertices `conn`; appends
  // decomposition nodes under `parent` on success (rolled back on fail).
  // `depth` selects the scratch frame (root calls pass 0).
  bool Decompose(const Bitset& comp, const Bitset& conn, int parent,
                 int depth) {
    if (BudgetExceeded()) return false;
    if (comp.None()) return true;
    DecomposeCallsMetric().Increment();
    if (ctx_.cache != nullptr) {
      std::shared_ptr<const CachedSubtree> sub;
      switch (ctx_.cache->Lookup(comp, conn, ctx_.k, &sub)) {
        case DecompCache::Outcome::kNegative:
          return false;
        case DecompCache::Outcome::kPositive:
          Splice(*sub, parent);
          return true;
        case DecompCache::Outcome::kUnknown:
          break;
      }
    } else if (LocalFailed(comp, conn)) {
      return false;
    }
    size_t mark = chi_.size();
    bool ok = Search(comp, conn, parent, depth);
    if (ctx_.cache != nullptr) {
      if (ok) {
        ctx_.cache->InsertPositive(comp, conn, ctx_.k, Capture(mark));
      } else if (!aborted_) {
        ctx_.cache->InsertNegative(comp, conn, ctx_.k);
      }
    } else if (!ok && !aborted_) {
      failed_[comp].push_back(conn);
    }
    return ok;
  }

  // Explores the root separators whose lowest-index candidate is
  // candidates[from] (one task of the parallelized top-level loop;
  // mirrors one iteration of EnumerateSeparators at the root).
  bool RootTask(const Bitset& comp, const Bitset& conn, const Bitset& scope,
                const std::vector<int>& candidates, size_t from) {
    if (BudgetExceeded()) return false;
    RootTasksMetric().Increment();
    int e = candidates[from];
    std::vector<int> sep{e};
    return EnumerateSeparators(comp, conn, scope, candidates, from + 1, &sep,
                               ctx_.h.EdgeBits(e), /*parent=*/-1,
                               /*depth=*/0);
  }

  // Sorted candidate separator edges for (comp, conn): edges intersecting
  // the scope, those covering many connector vertices first (generated
  // word-parallel from the incidence index; deterministic count-desc,
  // id-asc order — identical to the old rescan + stable_sort).
  std::vector<int> Candidates(const Bitset& conn, const Bitset& scope) {
    std::vector<int> candidates;
    cand_gen_.SortedCandidates(conn, scope, &candidates);
    return candidates;
  }

  // var(edges), memoized per edge set: the same component/separator edge
  // sets recur on every recursion level. Bounded by kVarsMemoMaxEntries
  // (the whole memo is dropped at the cap; see detk.vars_memo_evictions).
  const Bitset& VarsOfEdges(const Bitset& edges) {
    auto it = vars_memo_.find(edges);
    if (it != vars_memo_.end()) {
      VarsMemoHitsMetric().Increment();
      return it->second;
    }
    if (vars_memo_.size() >= kVarsMemoMaxEntries) {
      VarsMemoEvictionsMetric().Add(static_cast<long>(vars_memo_.size()));
      vars_memo_.clear();
    }
    // One kernel OR-reduce over the index's edge->vertex arena.
    Bitset vars(ctx_.n);
    kernels::Active().OrReduceRows(
        vars.MutableWords(), ctx_.index.VertWords(), ctx_.index.EdgeVarRows(),
        ctx_.index.EdgeVarStride(), edges.Words(), edges.NumWords());
    return vars_memo_.emplace(edges, std::move(vars)).first->second;
  }

  // Recorded decomposition nodes, parent-first.
  std::vector<Bitset> chi_;
  std::vector<std::vector<int>> lambda_;
  std::vector<int> parent_;

 private:
  // Reusable per-recursion-depth scratch frame. References into a frame
  // stay valid while deeper frames are created (std::deque growth does
  // not move elements), and a frame is only written by recursion levels
  // at exactly its depth.
  struct DepthScratch {
    Bitset scope;                  // n bits: var(comp) | conn
    Bitset child_conn;             // n bits: var(child comp) & sep_vars
    std::vector<Bitset> sep_vars;  // per separator size s, slot s (n bits)
    std::vector<int> sep;
    std::vector<int> candidates;
    std::vector<Bitset> comps;     // component slots (m bits)
  };

  DepthScratch& ScratchAt(int depth) {
    while (static_cast<int>(scratch_.size()) <= depth) {
      scratch_.emplace_back();
      DepthScratch& s = scratch_.back();
      s.scope = Bitset(ctx_.n);
      s.child_conn = Bitset(ctx_.n);
      s.sep_vars.reserve(ctx_.k + 2);
      for (int i = 0; i < ctx_.k + 2; ++i) s.sep_vars.emplace_back(ctx_.n);
      ScratchBytesMetric().Add(static_cast<long>(ctx_.k + 4) *
                               ((ctx_.n + 63) / 64) * 8);
    }
    return scratch_[depth];
  }

  bool BudgetExceeded() {
    if (aborted_) return true;
    if (budget_.Tick()) {
      aborted_ = true;
    } else if (superseded_ != nullptr && superseded_()) {
      aborted_ = true;
      superseded_abort_ = true;
    }
    return aborted_;
  }

  // Deadline / cancellation / supersede poll that does NOT consume a
  // node-budget tick: separator attempts between two Decompose calls can
  // be numerous and individually slow (a component split each), so they
  // poll here to bound cancellation latency without changing the
  // semantics of max_nodes.
  bool PollCancelled() {
    if (aborted_) return true;
    if (budget_.PollDeadline()) {
      aborted_ = true;
    } else if (superseded_ != nullptr && superseded_()) {
      aborted_ = true;
      superseded_abort_ = true;
    }
    return aborted_;
  }

  bool LocalFailed(const Bitset& comp, const Bitset& conn) const {
    auto it = failed_.find(comp);
    if (it == failed_.end()) return false;
    for (const Bitset& c : it->second) {
      if (c == conn) return true;
    }
    return false;
  }

  // The separator enumeration for one (comp, conn) subproblem.
  bool Search(const Bitset& comp, const Bitset& conn, int parent, int depth) {
    DepthScratch& s = ScratchAt(depth);
    s.scope.AssignOr(VarsOfEdges(comp), conn);
    cand_gen_.SortedCandidates(conn, s.scope, &s.candidates);
    s.sep.clear();
    s.sep_vars[0].Clear();
    return EnumerateSeparators(comp, conn, s.scope, s.candidates, 0, &s.sep,
                               s.sep_vars[0], parent, depth);
  }

  // Recursively chooses up to k separator edges from candidates[from..).
  // A frame whose partial separator has size s reads `sep_vars` from slot
  // s of its depth's sep_vars stack (or a caller-owned set at the root)
  // and writes the extended union into slot s+1, so no live slot is ever
  // overwritten and the whole enumeration allocates nothing.
  bool EnumerateSeparators(const Bitset& comp, const Bitset& conn,
                           const Bitset& scope,
                           const std::vector<int>& candidates, size_t from,
                           std::vector<int>* sep, const Bitset& sep_vars,
                           int parent, int depth) {
    if (aborted_) return false;
    if (!sep->empty() && conn.IsSubsetOf(sep_vars)) {
      if (TrySeparator(comp, scope, *sep, sep_vars, parent, depth)) {
        return true;
      }
    }
    if (static_cast<int>(sep->size()) == ctx_.k) return false;
    DepthScratch& s = ScratchAt(depth);
    for (size_t i = from; i < candidates.size(); ++i) {
      int e = candidates[i];
      // Each added edge must contribute new scope vertices (otherwise it
      // neither helps covering conn nor splitting comp).
      if (!ctx_.h.EdgeBits(e).IntersectsAndNot(scope, sep_vars)) continue;
      Bitset& next_vars = s.sep_vars[sep->size() + 1];
      next_vars.AssignOr(sep_vars, ctx_.h.EdgeBits(e));
      sep->push_back(e);
      if (EnumerateSeparators(comp, conn, scope, candidates, i + 1, sep,
                              next_vars, parent, depth)) {
        return true;
      }
      sep->pop_back();
      if (aborted_) return false;
    }
    return false;
  }

  bool TrySeparator(const Bitset& comp, const Bitset& scope,
                    const std::vector<int>& sep, const Bitset& sep_vars,
                    int parent, int depth) {
    if (PollCancelled()) return false;
    SeparatorAttemptsMetric().Increment();
    DepthScratch& s = ScratchAt(depth);
    int ncomps = splitter_.Split(comp, sep_vars, &s.comps, 0);
    int comp_size = comp.Count();
    for (int i = 0; i < ncomps; ++i) {
      if (s.comps[i].Count() >= comp_size) return false;  // no progress
    }
    // Create the node; chi = var(lambda) ∩ (var(comp) ∪ conn).
    Bitset chi = sep_vars & scope;
    size_t rollback = chi_.size();
    chi_.push_back(std::move(chi));
    lambda_.push_back(sep);
    parent_.push_back(parent);
    int node = static_cast<int>(rollback);
    for (int i = 0; i < ncomps; ++i) {
      const Bitset& c = s.comps[i];
      s.child_conn.AssignAnd(VarsOfEdges(c), sep_vars);
      if (!Decompose(c, s.child_conn, node, depth + 1)) {
        chi_.resize(rollback);
        lambda_.resize(rollback);
        parent_.resize(rollback);
        return false;
      }
    }
    return true;
  }

  // Copies the nodes appended since `mark` into a relocatable subtree
  // (subtree-relative parents, -1 for the subtree root).
  std::shared_ptr<const CachedSubtree> Capture(size_t mark) const {
    auto sub = std::make_shared<CachedSubtree>();
    size_t count = chi_.size() - mark;
    sub->chi.reserve(count);
    sub->lambda.reserve(count);
    sub->parent.reserve(count);
    for (size_t i = mark; i < chi_.size(); ++i) {
      sub->chi.push_back(chi_[i]);
      sub->lambda.push_back(lambda_[i]);
      int p = parent_[i];
      sub->parent.push_back(p < static_cast<int>(mark)
                                ? -1
                                : p - static_cast<int>(mark));
    }
    return sub;
  }

  // Appends a recorded subtree under `parent`.
  void Splice(const CachedSubtree& sub, int parent) {
    SpliceMetric().Increment();
    int base = static_cast<int>(chi_.size());
    for (size_t i = 0; i < sub.chi.size(); ++i) {
      chi_.push_back(sub.chi[i]);
      lambda_.push_back(sub.lambda[i]);
      parent_.push_back(sub.parent[i] < 0 ? parent : base + sub.parent[i]);
    }
  }

  const DetKContext& ctx_;
  SearchBudget budget_;
  std::function<bool()> superseded_;
  bool aborted_ = false;
  bool superseded_abort_ = false;
  ComponentSplitter splitter_;
  CandidateGenerator cand_gen_;
  std::deque<DepthScratch> scratch_;
  std::unordered_map<Bitset, std::vector<Bitset>> failed_;  // cache-off mode
  std::unordered_map<Bitset, Bitset> vars_memo_;
};

std::optional<HypertreeDecomposition> BuildDecomposition(
    const DetKContext& ctx, const DetKWorker& worker) {
  HypertreeDecomposition hd(ctx.n);
  for (size_t p = 0; p < worker.chi_.size(); ++p) {
    hd.AddNode(worker.chi_[p], worker.lambda_[p], worker.parent_[p]);
  }
  // Every successful det-k run flows through here (including spliced
  // cache witnesses), so this debug check covers conditions 1-4 for all
  // of them.
  if (ht_internal::kDCheckEnabled) ValidateDecomposition(ctx.h, hd);
  return hd;
}

// Runs det-k with the given shared cache (may be null). The top-level
// separator loop is split per lowest-index candidate across the pool;
// the lowest successful index wins regardless of completion order, so
// the result is the one the sequential enumeration would produce.
std::optional<HypertreeDecomposition> RunDetK(const DetKContext& ctx,
                                              const SearchOptions& options,
                                              bool* aborted) {
  SearchBudget budget(options);
  Bitset all_edges(ctx.m);
  all_edges.SetAll();
  Bitset root_conn(ctx.n);

  int threads = options.threads > 0 ? options.threads
                                    : ThreadPool::HardwareThreads();

  if (threads <= 1) {
    DetKWorker worker(ctx, budget);
    bool ok = worker.Decompose(all_edges, root_conn, -1, /*depth=*/0);
    if (aborted != nullptr) *aborted = worker.aborted();
    if (!ok) return std::nullopt;
    return BuildDecomposition(ctx, worker);
  }

  // Root subproblem setup (mirrors DetKWorker::Search at the root).
  DetKWorker scout(ctx, budget);
  Bitset scope = scout.VarsOfEdges(all_edges) | root_conn;
  std::vector<int> candidates = scout.Candidates(root_conn, scope);
  if (candidates.empty()) {
    if (aborted != nullptr) *aborted = false;
    return std::nullopt;
  }

  std::atomic<int> best_index{INT_MAX};
  std::vector<std::unique_ptr<DetKWorker>> workers(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    workers[i] = std::make_unique<DetKWorker>(
        ctx, budget, [&best_index, i] {
          // Relaxed publish/poll is sound: best_index is a monotone
          // minimum, and a stale read only delays a worker's early exit —
          // the witness itself lives in the worker's own slot and is read
          // after pool.Wait(), which supplies the happens-before edge.
          // ht-analyze: allow(relaxed-publish)
          return best_index.load(std::memory_order_relaxed) <
                 static_cast<int>(i);
        });
  }
  {
    ThreadPool pool(threads);
    for (size_t i = 0; i < candidates.size(); ++i) {
      pool.Submit([&best_index, &workers, &all_edges, &root_conn, &scope,
                   &candidates, i] {
        // ht-analyze: allow(relaxed-publish) — stale poll only delays exit
        if (best_index.load(std::memory_order_relaxed) < static_cast<int>(i))
          return;  // already superseded before starting
        if (workers[i]->RootTask(all_edges, root_conn, scope, candidates,
                                 i)) {
          // Monotone-min CAS; winner data is in workers[i], synchronized
          // by Wait().
          // ht-analyze: allow(relaxed-publish)
          int seen = best_index.load(std::memory_order_relaxed);
          while (static_cast<int>(i) < seen &&
                 // ht-analyze: allow(relaxed-publish)
                 !best_index.compare_exchange_weak(
                     seen, static_cast<int>(i), std::memory_order_relaxed)) {
          }
        }
      });
    }
    pool.Wait();
  }

  // Wait() above orders every CAS before this read.
  // ht-analyze: allow(relaxed-publish)
  int winner = best_index.load(std::memory_order_relaxed);
  if (winner != INT_MAX) {
    if (aborted != nullptr) *aborted = false;
    return BuildDecomposition(ctx, *workers[winner]);
  }
  bool any_aborted = false;
  for (const auto& w : workers) {
    if (w->aborted() && !w->superseded_abort()) any_aborted = true;
  }
  if (aborted != nullptr) *aborted = any_aborted;
  return std::nullopt;
}

std::optional<HypertreeDecomposition> DetKDecompImpl(
    const Hypergraph& h, const IncidenceIndex& index, int k,
    const SearchOptions& options, DecompCache* cache, bool* aborted) {
  HT_CHECK_GE(k, 1);
  if (aborted != nullptr) *aborted = false;
  if (h.NumEdges() == 0) {
    return HypertreeDecomposition(h.NumVertices());
  }
  DetKContext ctx{h,
                  index,
                  k,
                  h.NumVertices(),
                  h.NumEdges(),
                  options.use_decomp_cache ? cache : nullptr};
  return RunDetK(ctx, options, aborted);
}

}  // namespace

std::optional<HypertreeDecomposition> DetKDecomp(const Hypergraph& h, int k,
                                                 const SearchOptions& options,
                                                 bool* aborted) {
  DecompCache cache;
  IncidenceIndex index(h);
  return DetKDecompImpl(h, index, k, options, &cache, aborted);
}

WidthResult HypertreeWidth(const Hypergraph& h, const SearchOptions& options,
                           std::optional<HypertreeDecomposition>* witness) {
  WidthResult res;
  Timer timer;
  Rng rng(options.seed);
  int lb = GhwLowerBound(h, &rng);  // ghw <= hw
  int m = h.NumEdges();
  if (m == 0) {
    res.exact = true;
    res.seconds = timer.ElapsedSeconds();
    return res;
  }
  res.lower_bound = lb;
  res.upper_bound = m;  // trivial: one node with all edges
  Deadline deadline(options.time_limit_seconds);
  // One incidence index and one cache for all k iterations: the index is
  // a function of the instance alone, and cache entries are keyed on k,
  // so refutation work at k never contaminates k+1 while the stats
  // aggregate naturally.
  IncidenceIndex index(h);
  DecompCache cache;
  for (int k = std::max(1, lb); k <= m; ++k) {
    // Width cap: proving hw <= k cannot improve on an upper bound of
    // max_width, so stop before k reaches it (the portfolio seeds this
    // with the prologue incumbent).
    if (options.max_width > 0 && k >= options.max_width) break;
    SearchOptions sub = options;
    if (options.time_limit_seconds > 0) {
      sub.time_limit_seconds =
          options.time_limit_seconds - deadline.ElapsedSeconds();
      if (sub.time_limit_seconds <= 0) break;
    }
    bool aborted = false;
    auto hd = DetKDecompImpl(h, index, k, sub, &cache, &aborted);
    if (hd.has_value()) {
      res.upper_bound = k;
      res.lower_bound = k;
      res.exact = true;
      if (witness != nullptr) *witness = std::move(hd);
      break;
    }
    if (aborted) break;       // budget ran out: bounds only
    res.lower_bound = k + 1;  // hw > k proven
  }
  res.cache_stats = cache.stats();
  res.seconds = timer.ElapsedSeconds();
  return res;
}

}  // namespace hypertree
