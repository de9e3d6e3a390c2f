// Fixture: capture-defaults and `this` crossing the thread boundary.
//
// expect-analyze: pool-capture
// expect-analyze: pool-capture
// expect-analyze: pool-capture
// expect-analyze: pool-capture

struct ThreadPool {
  template <typename F>
  void Submit(F f);
};

struct TreeShape {};

template <typename F>
void RunTreeBottomUp(const TreeShape& tree, ThreadPool* pool, F f);

void Defaults(ThreadPool& pool, const TreeShape& tree, int n) {
  int total = 0;
  pool.Submit([&] { total += n; });
  pool.Submit([=] { (void)n; });
  RunTreeBottomUp(tree, &pool, [&](int i) { total += i; });
}

struct Holder {
  ThreadPool* pool_;
  int member_ = 0;
  void Kick() {
    pool_->Submit([this] { ++member_; });
  }
};
