#include "search/decomp_cache.h"

#include "util/check.h"
#include "util/metrics.h"

namespace hypertree {

namespace {

// Process-wide mirrors of the per-instance counters, so cache traffic is
// queryable through the metrics registry (tools --json, bench records)
// without plumbing a cache handle around.
metrics::Counter& HitsMetric() {
  static metrics::Counter& c = metrics::GetCounter("decomp_cache.hits");
  return c;
}
metrics::Counter& MissesMetric() {
  static metrics::Counter& c = metrics::GetCounter("decomp_cache.misses");
  return c;
}
metrics::Counter& InsertsMetric() {
  static metrics::Counter& c = metrics::GetCounter("decomp_cache.inserts");
  return c;
}

}  // namespace

void AddDecompCacheMetrics(const DecompCacheStats& stats) {
  HitsMetric().Add(stats.hits);
  MissesMetric().Add(stats.misses);
  InsertsMetric().Add(stats.inserts);
}

DecompCache::Outcome DecompCache::LookupInstance(
    const Bitset& key, int* meta,
    std::shared_ptr<const CachedSubtree>* subtree) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    MissesMetric().Increment();
    return Outcome::kUnknown;
  }
  ++stats_.hits;
  HitsMetric().Increment();
  if (meta != nullptr) *meta = it->second.meta;
  if (subtree != nullptr) *subtree = it->second.subtree;
  return Outcome::kPositive;
}

void DecompCache::InsertInstance(const Bitset& key, int meta,
                                 std::shared_ptr<const CachedSubtree> subtree) {
  HT_CHECK(subtree != nullptr)
      << "instance entries must carry their witness subtree";
  HT_CHECK_EQ(subtree->chi.size(), subtree->parent.size())
      << "cached subtree chi/parent arrays out of step";
  HT_CHECK_EQ(subtree->lambda.size(), subtree->parent.size())
      << "cached subtree lambda/parent arrays out of step";
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.try_emplace(key, Entry{meta, std::move(subtree)}).second) {
    ++stats_.inserts;
    InsertsMetric().Increment();
  }
}

size_t DecompCache::NumEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

DecompCacheStats DecompCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void DecompCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

}  // namespace hypertree
