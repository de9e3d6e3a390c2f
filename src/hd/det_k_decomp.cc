#include "hd/det_k_decomp.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bounds/ghw_lower_bounds.h"
#include "hypergraph/incidence_index.h"
#include "kernels/kernels.h"
#include "search/decomp_cache.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hypertree {

namespace {

// The per-edge-set VarsOfEdges memo is bounded so adversarial instances
// (exponentially many distinct components) cannot grow it without limit;
// at the cap the whole memo is dropped (deterministic, and the hot keys
// repopulate immediately).
constexpr size_t kVarsMemoMaxEntries = 1 << 16;

// Registry counters for the observability layer; resolved once, bumped
// on the hot paths.
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

// (component, connector): the key of one det-k subproblem.
struct Subproblem {
  Bitset comp;
  Bitset conn;
  bool operator==(const Subproblem& o) const {
    return comp == o.comp && conn == o.conn;
  }
};
struct SubproblemHash {
  size_t operator()(const Subproblem& key) const {
    uint64_t h = key.comp.Hash();
    h ^= key.conn.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

// One det-k decision run: decides hw <= k for one k on the calling
// thread. It owns its node arrays, its subproblem memo, its VarsOfEdges
// memo and its scratch arena.
//
// The memo maps (component, connector) to "refuted" or to the witness
// subtree found for it, which a later hit splices in instead of
// re-deriving. Both are facts about the subproblem at this k, so a hit
// gives the answer the search itself would reach.
//
// Steady-state allocation discipline: every set the separator-enumeration
// recursion manipulates (scopes, separator vertex unions, connectors,
// component edge sets, candidate lists) lives in a per-depth scratch
// frame that is constructed once and reused; slot construction is the
// only heap traffic and is counted in detk.scratch_bytes_allocated, which
// plateaus once the search reaches its maximum recursion depth.
class DetKSearch {
 public:
  DetKSearch(const Hypergraph& h, const IncidenceIndex& index, int k,
             const SearchOptions& options)
      : h_(h),
        index_(index),
        k_(k),
        n_(h.NumVertices()),
        use_memo_(options.use_decomp_cache),
        budget_(options) {
    HT_CHECK_GE(k, 1);
    splitter_.Attach(&index);
    cand_gen_.Attach(&index);
  }

  // Decides hw <= k: a witness on success; std::nullopt on a refutation
  // or when the budget ran out (aborted()). Adds the memo's counters to
  // the decomp_cache.* registry counters.
  std::optional<HypertreeDecomposition> Run() {
    if (h_.NumEdges() == 0) return HypertreeDecomposition(n_);
    Bitset all_edges(h_.NumEdges());
    all_edges.SetAll();
    const bool ok = Decompose(all_edges, Bitset(n_), /*parent=*/-1,
                              /*depth=*/0);
    AddDecompCacheMetrics(stats_);
    if (!ok) return std::nullopt;
    HypertreeDecomposition hd(n_);
    for (size_t p = 0; p < chi_.size(); ++p) {
      hd.AddNode(chi_[p], lambda_[p], parent_[p]);
    }
    // Every successful det-k run flows through here (including spliced
    // memo witnesses), so this debug check covers conditions 1-4 for all
    // of them.
    if (ht_internal::kDCheckEnabled) ValidateDecomposition(h_, hd);
    return hd;
  }

  bool aborted() const { return aborted_; }
  // Budget ticks: one per Decompose call.
  long ticks() const { return budget_.ticks(); }
  const DecompCacheStats& cache_stats() const { return stats_; }

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

  // Tries to decompose `comp` under connecting vertices `conn`; appends
  // decomposition nodes under `parent` on success (rolled back on fail).
  // `depth` selects the scratch frame (the root call passes 0).
  bool Decompose(const Bitset& comp, const Bitset& conn, int parent,
                 int depth) {
    if (BudgetExceeded()) return false;
    if (comp.None()) return true;
    DecomposeCallsMetric().Increment();
    if (use_memo_) {
      auto it = memo_.find(Subproblem{comp, conn});
      if (it != memo_.end()) {
        ++stats_.hits;
        if (!it->second.has_value()) return false;
        Splice(*it->second, parent);
        return true;
      }
      ++stats_.misses;
    } else if (LocalFailed(comp, conn)) {
      return false;
    }
    size_t mark = chi_.size();
    bool ok = Search(comp, conn, parent, depth);
    if (use_memo_) {
      // Recursion only visits strictly smaller components, so the
      // subproblem is still absent here.
      if (ok) {
        memo_.emplace(Subproblem{comp, conn}, Capture(mark));
        ++stats_.inserts;
      } else if (!aborted_) {
        memo_.emplace(Subproblem{comp, conn}, std::nullopt);
        ++stats_.inserts;
      }
    } else if (!ok && !aborted_) {
      failed_[comp].push_back(conn);
    }
    return ok;
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
    Bitset vars(n_);
    kernels::Active().OrReduceRows(
        vars.MutableWords(), index_.VertWords(), index_.EdgeVarRows(),
        index_.EdgeVarStride(), edges.Words(), edges.NumWords());
    return vars_memo_.emplace(edges, std::move(vars)).first->second;
  }

  DepthScratch& ScratchAt(int depth) {
    while (static_cast<int>(scratch_.size()) <= depth) {
      scratch_.emplace_back();
      DepthScratch& s = scratch_.back();
      s.scope = Bitset(n_);
      s.child_conn = Bitset(n_);
      s.sep_vars.reserve(k_ + 2);
      for (int i = 0; i < k_ + 2; ++i) s.sep_vars.emplace_back(n_);
      ScratchBytesMetric().Add(static_cast<long>(k_ + 4) * ((n_ + 63) / 64) *
                               8);
    }
    return scratch_[depth];
  }

  bool BudgetExceeded() {
    if (!aborted_ && budget_.Tick()) aborted_ = true;
    return aborted_;
  }

  // Deadline / cancellation poll that does NOT consume a node-budget
  // tick: separator attempts between two Decompose calls can be numerous
  // and individually slow (a component split each), so they poll here to
  // bound cancellation latency without changing the semantics of
  // max_nodes.
  bool PollCancelled() {
    if (!aborted_ && budget_.PollDeadline()) aborted_ = true;
    return aborted_;
  }

  // Out of line: inlined, the poll slows the whole enumeration down.
  [[gnu::noinline]] bool PollEnumeration() { return PollCancelled(); }

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
  // s of its depth's sep_vars stack and writes the extended union into
  // slot s+1, so no live slot is ever overwritten and the whole
  // enumeration allocates nothing.
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
    if (static_cast<int>(sep->size()) == k_) return false;
    // Between two TrySeparator calls the enumeration can run for seconds,
    // so every 256th extending frame polls too (the counter wraps).
    if (++enumeration_frames_ == 0 && PollEnumeration()) return false;
    DepthScratch& s = ScratchAt(depth);
    for (size_t i = from; i < candidates.size(); ++i) {
      int e = candidates[i];
      // Each added edge must contribute new scope vertices (otherwise it
      // neither helps covering conn nor splitting comp).
      if (!h_.EdgeBits(e).IntersectsAndNot(scope, sep_vars)) continue;
      Bitset& next_vars = s.sep_vars[sep->size() + 1];
      next_vars.AssignOr(sep_vars, h_.EdgeBits(e));
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
  CachedSubtree Capture(size_t mark) const {
    CachedSubtree sub;
    size_t count = chi_.size() - mark;
    sub.chi.reserve(count);
    sub.lambda.reserve(count);
    sub.parent.reserve(count);
    for (size_t i = mark; i < chi_.size(); ++i) {
      sub.chi.push_back(chi_[i]);
      sub.lambda.push_back(lambda_[i]);
      int p = parent_[i];
      sub.parent.push_back(p < static_cast<int>(mark)
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

  const Hypergraph& h_;
  const IncidenceIndex& index_;
  const int k_;
  const int n_;
  const bool use_memo_;  // false: per-run negative memo only (ablation)
  SearchBudget budget_;
  bool aborted_ = false;
  uint8_t enumeration_frames_ = 0;
  ComponentSplitter splitter_;
  CandidateGenerator cand_gen_;
  std::deque<DepthScratch> scratch_;
  // Recorded decomposition nodes, parent-first.
  std::vector<Bitset> chi_;
  std::vector<std::vector<int>> lambda_;
  std::vector<int> parent_;
  // Subproblem memo: std::nullopt marks a refuted subproblem.
  std::unordered_map<Subproblem, std::optional<CachedSubtree>, SubproblemHash>
      memo_;
  DecompCacheStats stats_;
  std::unordered_map<Bitset, std::vector<Bitset>> failed_;  // memo-off mode
  std::unordered_map<Bitset, Bitset> vars_memo_;
};

}  // namespace

std::optional<HypertreeDecomposition> DetKDecomp(const Hypergraph& h, int k,
                                                 const SearchOptions& options,
                                                 bool* aborted) {
  IncidenceIndex index(h);
  DetKSearch search(h, index, k, options);
  std::optional<HypertreeDecomposition> hd = search.Run();
  if (aborted != nullptr) *aborted = search.aborted();
  return hd;
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
  // One incidence index for all k: it is a function of the instance
  // alone. Each k runs its own search with its own memo, since a
  // subproblem refuted at k may still be decomposable at k+1.
  IncidenceIndex index(h);
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
    DetKSearch search(h, index, k, sub);
    std::optional<HypertreeDecomposition> hd = search.Run();
    res.nodes += search.ticks();
    res.cache_stats += search.cache_stats();
    if (hd.has_value()) {
      res.upper_bound = k;
      res.lower_bound = k;
      res.exact = true;
      if (witness != nullptr) *witness = std::move(hd);
      break;
    }
    if (search.aborted()) break;  // budget ran out: bounds only
    res.lower_bound = k + 1;      // hw > k proven
  }
  res.seconds = timer.ElapsedSeconds();
  return res;
}

}  // namespace hypertree
