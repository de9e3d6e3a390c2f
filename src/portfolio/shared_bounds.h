// SharedBounds: the atomic state racing portfolio engines share.
//
// The bounds start at the prologue's static lower bound and heuristic
// incumbent, and only Prove() moves them: engines neither publish nor
// read bounds during a race, so the bounds and their update counters
// record only proofs. An engine that *proves* optimality calls Prove(),
// which max-merges the width into the lower bound, min-merges it into the
// upper bound and cancels every engine with a LARGER index via its
// CancellationToken; lower-indexed engines run to completion. That
// supersede rule is what keeps racing deterministic: whether engine i
// finishes is then independent of thread scheduling (it can only be
// cancelled by provers ordered before it, whose own runs are
// deterministic), so "lowest-indexed prover" — the lowest-index-wins
// rule of the parallel det-k root search — names the same winner for
// every --threads value.

#ifndef HYPERTREE_PORTFOLIO_SHARED_BOUNDS_H_
#define HYPERTREE_PORTFOLIO_SHARED_BOUNDS_H_

#include <atomic>
#include <climits>
#include <mutex>
#include <vector>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace hypertree {

/// Thread-safe race state. All bound reads/writes are lock-free (relaxed
/// atomics: bounds are monotone scalars merged by CAS); only the
/// first-prove timestamp takes a mutex, off the hot path.
class SharedBounds {
 public:
  /// `num_engines` fixed for the race; optional seed bounds come from the
  /// deterministic prologue (static lower bound, heuristic incumbent).
  explicit SharedBounds(int num_engines, int lower_bound = 0,
                        int upper_bound = INT_MAX)
      : lb_(lower_bound), ub_(upper_bound), tokens_(num_engines) {}

  /// Best witnessed upper bound so far; INT_MAX when none.
  int IncumbentUpperBound() const {
    return ub_.load(std::memory_order_relaxed);
  }
  /// Min-merges a witnessed width.
  void PublishUpperBound(int width) {
    int seen = ub_.load(std::memory_order_relaxed);
    while (width < seen) {
      if (ub_.compare_exchange_weak(seen, width, std::memory_order_relaxed)) {
        ub_updates_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }
  /// Max-merges a proven lower bound.
  void PublishLowerBound(int bound) {
    int seen = lb_.load(std::memory_order_relaxed);
    while (bound > seen) {
      if (lb_.compare_exchange_weak(seen, bound, std::memory_order_relaxed)) {
        lb_updates_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  int LowerBound() const { return lb_.load(std::memory_order_relaxed); }

  /// Engine `engine` proved the optimum is `width`: record it as a
  /// candidate winner and cancel every engine ordered after it. Safe to
  /// call from multiple engines; the smallest index wins.
  void Prove(int engine, int width) {
    PublishUpperBound(width);
    PublishLowerBound(width);
    // Relaxed is deliberate on the winner index: best_prover_ is a
    // monotone minimum (CAS only ever lowers it), every engine's witness
    // lives in its own caller-owned slot, and the verdict is read after
    // ThreadPool::Wait(), which provides the publication happens-before.
    // A stale read here only delays supersede-cancellation; it cannot
    // unpublish or tear the result.
    // ht-analyze: allow(relaxed-publish)
    int seen = best_prover_.load(std::memory_order_relaxed);
    while (engine < seen &&
           // ht-analyze: allow(relaxed-publish)
           !best_prover_.compare_exchange_weak(seen, engine,
                                               std::memory_order_relaxed)) {
    }
    for (size_t j = static_cast<size_t>(engine) + 1; j < tokens_.size(); ++j) {
      tokens_[j].Cancel();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (first_prove_seconds_ < 0) {
      first_prove_seconds_ = timer_.ElapsedSeconds();
    }
  }

  /// Lowest engine index that proved optimality so far; INT_MAX if none.
  /// Stale reads only delay pruning; the authoritative read happens after
  /// the race's Wait().
  int BestProver() const {
    // ht-analyze: allow(relaxed-publish)
    return best_prover_.load(std::memory_order_relaxed);
  }

  /// True when some engine ordered before `engine` already proved.
  bool Superseded(int engine) const { return BestProver() < engine; }

  /// The cancellation token engine `engine` must poll.
  CancellationToken TokenFor(int engine) {
    return tokens_[static_cast<size_t>(engine)];
  }

  /// Cancels every engine (race teardown on external abort).
  void CancelAll() {
    for (auto& t : tokens_) t.Cancel();
  }

  long ub_updates() const {
    return ub_updates_.load(std::memory_order_relaxed);
  }
  long lb_updates() const {
    return lb_updates_.load(std::memory_order_relaxed);
  }

  /// Seconds from construction to the race's first optimality proof
  /// (negative when nothing proved yet).
  double FirstProveSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_prove_seconds_;
  }

  /// Seconds since construction (for cancel-latency accounting).
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  std::atomic<int> lb_;
  std::atomic<int> ub_;
  std::atomic<int> best_prover_{INT_MAX};
  std::atomic<long> ub_updates_{0};
  std::atomic<long> lb_updates_{0};
  std::vector<CancellationToken> tokens_;
  Timer timer_;
  mutable std::mutex mu_;
  double first_prove_seconds_ = -1.0;
};

}  // namespace hypertree

#endif  // HYPERTREE_PORTFOLIO_SHARED_BOUNDS_H_
