#include "search/decomp_cache.h"

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

void DecompCache::CountHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  HitsMetric().Increment();
}

void DecompCache::CountMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  MissesMetric().Increment();
}

void DecompCache::CountInsert() {
  inserts_.fetch_add(1, std::memory_order_relaxed);
  InsertsMetric().Increment();
}

DecompCache::DecompCache(int num_shards) {
  int n = num_shards < 1 ? 1 : num_shards;
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

DecompCache::Outcome DecompCache::LookupInstance(
    const Bitset& key, int* meta,
    std::shared_ptr<const CachedSubtree>* subtree) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    CountMiss();
    return Outcome::kUnknown;
  }
  CountHit();
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
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.try_emplace(key, Entry{meta, std::move(subtree)}).second) {
    CountInsert();
  }
}

std::vector<size_t> DecompCache::ShardEntryCounts() const {
  std::vector<size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    counts.push_back(shard->map.size());
  }
  return counts;
}

size_t DecompCache::NumEntries() const {
  size_t total = 0;
  for (size_t c : ShardEntryCounts()) total += c;
  return total;
}

DecompCacheStats DecompCache::stats() const {
  DecompCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  return s;
}

void DecompCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
  }
}

}  // namespace hypertree
