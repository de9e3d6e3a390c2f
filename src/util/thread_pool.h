// A fixed-size worker pool with a FIFO task queue, plus a shared
// cancellation token the search algorithms poll cooperatively.
//
// The portfolio races its engines on a pool and needs to (a) wait for a
// deterministic winner and (b) tell superseded engines to stop; the
// solving routes run relation-tree nodes and morsels on one. Submit/Wait
// and CancellationToken cover exactly that; there is no future/result
// plumbing — tasks write into caller-owned slots.

#ifndef HYPERTREE_UTIL_THREAD_POOL_H_
#define HYPERTREE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hypertree {

/// A copyable flag shared by everyone holding a copy: Cancel() on any copy
/// is visible to Cancelled() on all of them. Default-constructed tokens
/// are independent (never cancelled until their own Cancel()).
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// A token that additionally reports cancelled once any of the input
  /// tokens is. Cancel() on the combined token trips only its own flag;
  /// the inputs are unaffected. Used to merge independent cancellation
  /// sources (e.g. a portfolio supersede token with a server shutdown
  /// token) without polling two tokens on the hot path.
  static CancellationToken AnyOf(const CancellationToken& a,
                                 const CancellationToken& b) {
    CancellationToken t;
    auto watched = std::make_shared<std::vector<Flag>>();
    auto absorb = [&watched](const CancellationToken& src) {
      watched->push_back(src.flag_);
      if (src.watched_ != nullptr) {
        watched->insert(watched->end(), src.watched_->begin(),
                        src.watched_->end());
      }
    };
    absorb(a);
    absorb(b);
    t.watched_ = std::move(watched);
    return t;
  }

  /// Requests cancellation; idempotent and thread-safe.
  void Cancel() { flag_->store(true, std::memory_order_relaxed); }

  /// True once any copy of this token — or, for AnyOf tokens, any watched
  /// input — was cancelled.
  bool Cancelled() const {
    if (flag_->load(std::memory_order_relaxed)) return true;
    if (watched_ != nullptr) {
      for (const Flag& f : *watched_) {
        if (f->load(std::memory_order_relaxed)) return true;
      }
    }
    return false;
  }

 private:
  using Flag = std::shared_ptr<std::atomic<bool>>;

  Flag flag_;
  // Immutable after construction; shared by all copies of an AnyOf token.
  std::shared_ptr<const std::vector<Flag>> watched_;
};

/// Fixed-size thread pool. Tasks run in FIFO submission order (subject to
/// worker availability); Wait() blocks until every submitted task has
/// finished, including tasks submitted from inside other tasks. The
/// destructor drains the queue before joining the workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (<= 0: HardwareThreads()).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int NumThreads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Never blocks (the queue is unbounded).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks (including nested submissions) have
  /// completed.
  void Wait();

  /// std::thread::hardware_concurrency(), with a floor of 1.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  long pending_ = 0;  // queued + currently running tasks
  bool stop_ = false;
};

}  // namespace hypertree

#endif  // HYPERTREE_UTIL_THREAD_POOL_H_
