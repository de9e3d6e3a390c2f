// Shared types for the exact (anytime) width algorithms: result/options
// structs and the unified SearchBudget.

#ifndef HYPERTREE_TD_EXACT_H_
#define HYPERTREE_TD_EXACT_H_

#include <cstdint>

#include "ordering/ordering.h"
#include "search/decomp_cache.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hypertree {

/// Outcome of an exact (anytime) width computation.
struct WidthResult {
  int lower_bound = 0;   // proven lower bound on the width
  int upper_bound = 0;   // width of the best decomposition found
  bool exact = false;    // lower_bound == upper_bound proven
  long nodes = 0;        // search nodes expanded
  double seconds = 0.0;  // wall time spent
  EliminationOrdering best_ordering;  // witnesses upper_bound
  DecompCacheStats cache_stats;  // memo/transposition table effectiveness
};

/// Budget/feature knobs for the exact searches.
struct SearchOptions {
  double time_limit_seconds = 0.0;  // <= 0: unlimited
  long max_nodes = 0;               // <= 0: unlimited (A*: max stored states)
  bool use_simplicial_reduction = true;  // thesis §4.4.3
  bool use_pr2 = true;                   // swap pruning rule (thesis §4.4.5)
  bool use_duplicate_detection = true;   // A* only: merge equal eliminated sets
  /// A *known-valid* upper bound used to prime pruning (e.g. from a GA
  /// run). If the search cannot improve on it, `upper_bound` reports this
  /// hint while `best_ordering` keeps the best internally found ordering,
  /// which may be wider. <= 0: compute via min-fill.
  int initial_upper_bound = -1;
  /// Iterative-deepening cap for HypertreeWidth's k loop: stop before
  /// trying k >= max_width (the portfolio caps det-k at the incumbent
  /// shared width, where proving hw <= k cannot improve the race's upper
  /// bound). <= 0: uncapped.
  int max_width = 0;
  uint64_t seed = 1;                     // tie-breaking seed
  /// Memoization: det-k's (component, connector) subproblem memo, and the
  /// ghw searches' transposition table and bound memos (the treewidth
  /// searches have neither). Off reverts to the seed behavior (per-run
  /// local negative memo only) for ablation/soundness checks.
  bool use_decomp_cache = true;
  /// Cooperative external cancellation; Cancel() makes the search return
  /// its anytime bounds as if the deadline had expired.
  CancellationToken cancel;
};

/// Counts cancellation-token polls across all searches, so the portfolio
/// can verify its cancellation latency is bounded by actual poll traffic
/// (satisfying "every inner loop polls the token, not just the budget").
inline metrics::Counter& CancelPollMetric() {
  static metrics::Counter& c = metrics::GetCounter("cancel.poll");
  return c;
}

/// Unified deadline / node-budget / cancellation bookkeeping for the
/// exact searches, each of which runs on one thread. One Tick() per
/// search node; the wall clock is polled every 64 ticks, the node budget
/// and the cancellation token on every tick. Once exhausted it stays
/// exhausted.
class SearchBudget {
 public:
  explicit SearchBudget(const SearchOptions& opts)
      : deadline_(opts.time_limit_seconds),
        max_nodes_(opts.max_nodes),
        cancel_(opts.cancel) {}

  /// Counts one unit of work; returns true once the budget is exhausted.
  bool Tick() {
    if (exceeded_) return true;
    ++ticks_;
    CancelPollMetric().Increment();
    if (max_nodes_ > 0 && ticks_ >= max_nodes_) {
      exceeded_ = true;
    } else if ((ticks_ & 63) == 0 && deadline_.Expired()) {
      exceeded_ = true;
    } else if (cancel_.Cancelled()) {
      exceeded_ = true;
    }
    return exceeded_;
  }

  /// Node budget expressed against an externally maintained count (A*
  /// bounds *stored* states, not expanded ones). Also polls the deadline
  /// and the cancellation token. Sticky like Tick().
  bool ExceedsNodeBudget(long count) {
    if (exceeded_) return true;
    CancelPollMetric().Increment();
    if (max_nodes_ > 0 && count > max_nodes_) exceeded_ = true;
    if (cancel_.Cancelled()) exceeded_ = true;
    return exceeded_;
  }

  /// Polls the cancellation token on every call and the wall clock on
  /// every 16th, without a tick (for loops that tick elsewhere, such as
  /// the searches' per-child bag prices: a clock read can cost more than
  /// a cheap price).
  bool PollDeadline() {
    if (exceeded_) return true;
    CancelPollMetric().Increment();
    if (cancel_.Cancelled() || ((++polls_ & 15) == 0 && deadline_.Expired()))
      exceeded_ = true;
    return exceeded_;
  }

  bool Exceeded() const { return exceeded_; }
  void MarkExceeded() { exceeded_ = true; }
  long ticks() const { return ticks_; }
  double ElapsedSeconds() const { return deadline_.ElapsedSeconds(); }

 private:
  Deadline deadline_;
  long max_nodes_;
  CancellationToken cancel_;
  long ticks_ = 0;
  bool exceeded_ = false;
  unsigned polls_ = 0;
};

}  // namespace hypertree

#endif  // HYPERTREE_TD_EXACT_H_
