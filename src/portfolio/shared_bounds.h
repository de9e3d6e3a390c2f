// SharedBounds: the atomic state racing portfolio engines share.
//
// Engines neither publish nor read bounds during a race: they all start
// from the prologue's bounds, and the verdict takes the winner's width
// from its own outcome. What they share is the supersede rule. An engine
// that *proves* optimality calls Prove(), which records it as a candidate
// winner and cancels every engine with a LARGER index via its
// CancellationToken; lower-indexed engines run to completion. That
// supersede rule is what keeps racing deterministic: whether engine i
// finishes is then independent of thread scheduling (it can only be
// cancelled by provers ordered before it, whose own runs are
// deterministic), so "lowest-indexed prover" names the same winner for
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

/// Thread-safe race state. The winner index is a lock-free atomic; only
/// the first-prove timestamp takes a mutex, off the hot path.
class SharedBounds {
 public:
  /// `num_engines` fixed for the race.
  explicit SharedBounds(int num_engines) : tokens_(num_engines) {}

  /// Engine `engine` proved its width optimal: record it as a candidate
  /// winner and cancel every engine ordered after it. Safe to call from
  /// multiple engines; the smallest index wins.
  void Prove(int engine) {
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

  /// Seconds from construction to the race's first optimality proof
  /// (negative when nothing proved yet).
  double FirstProveSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_prove_seconds_;
  }

  /// Seconds since construction (for cancel-latency accounting).
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  std::atomic<int> best_prover_{INT_MAX};
  std::vector<CancellationToken> tokens_;
  Timer timer_;
  mutable std::mutex mu_;
  double first_prove_seconds_ = -1.0;
};

}  // namespace hypertree

#endif  // HYPERTREE_PORTFOLIO_SHARED_BOUNDS_H_
