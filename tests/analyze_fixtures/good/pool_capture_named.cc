// Fixture: lambdas handed to the thread pool with every capture named.
// The pool-capture rule must stay silent on all of these.

#include <functional>

struct ThreadPool {
  template <typename F>
  void Submit(F f);
};

struct TreeShape {};

template <typename F>
void RunTreeBottomUp(const TreeShape& tree, ThreadPool* pool, F f);

void NamedCaptures(ThreadPool& pool, const TreeShape& tree, int n) {
  int total = 0;
  pool.Submit([&total, n] { total += n; });
  pool.Submit([n] { (void)n; });
  RunTreeBottomUp(tree, &pool, [&total](int i) { total += i; });
}

struct Holder {
  ThreadPool* pool_;
  int member_ = 0;
  void Kick() {
    // Init-capture of the needed pointer is explicit, unlike `[this]`.
    pool_->Submit([self = this] { ++self->member_; });
  }
};

// A declaration of a pool entry point is not a call site.
void Submit(std::function<void()> task);
