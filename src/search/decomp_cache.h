// The in-memory level of the decomposition service's cache (src/serve),
// plus the cache counters every memoizing search reports.
//
// DecompCache holds whole-instance witness entries: the key is the 128-bit
// content hash of the normalized instance (as a Bitset), the value a
// caller-packed meta word plus the full decomposition as a CachedSubtree.
// The on-disk level serializes the same witnesses through
// src/io/ghd_format.
//
// The table is sharded by key hash; every shard has its own mutex, so
// concurrent request handlers rarely contend. Hit/miss/insert counters
// are maintained with relaxed atomics and reported via stats().
//
// The exact searches run on one thread each and keep their memos in
// private tables (det-k's subproblem memo, the elimination searches'
// BestGTable); they count with DecompCacheStats and publish through
// AddDecompCacheMetrics.

#ifndef HYPERTREE_SEARCH_DECOMP_CACHE_H_
#define HYPERTREE_SEARCH_DECOMP_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"

namespace hypertree {

/// Cache effectiveness counters (plain struct so results can carry it
/// without linking the cache library).
struct DecompCacheStats {
  long hits = 0;     // lookups answered from the table
  long misses = 0;   // lookups that found nothing usable
  long inserts = 0;  // entries written

  DecompCacheStats& operator+=(const DecompCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    inserts += o.inserts;
    return *this;
  }
};

/// Adds `stats` to the process-wide decomp_cache.* registry counters that
/// every DecompCache feeds probe by probe. For single-threaded tables that
/// count on their own and report once per search.
void AddDecompCacheMetrics(const DecompCacheStats& stats);

/// A recorded decomposition subtree: nodes in parent-first order with
/// subtree-relative parent indices (-1 marks the subtree root; det-k
/// re-parents it under its current node when it splices a memo hit).
struct CachedSubtree {
  std::vector<Bitset> chi;
  std::vector<std::vector<int>> lambda;
  std::vector<int> parent;
};

/// Thread-safe whole-instance witness table keyed on a content hash.
class DecompCache {
 public:
  enum class Outcome { kUnknown, kPositive };

  /// `num_shards` independent lock domains (rounded up to at least 1).
  explicit DecompCache(int num_shards = 16);

  /// Whole-instance witness lookup. On kPositive, `*meta` / `*subtree`
  /// (when non-null) receive the stored meta word and decomposition.
  Outcome LookupInstance(const Bitset& key, int* meta = nullptr,
                         std::shared_ptr<const CachedSubtree>* subtree =
                             nullptr);

  /// Records a whole-instance witness under `key`. First write wins (the
  /// witness for a content hash never changes).
  void InsertInstance(const Bitset& key, int meta,
                      std::shared_ptr<const CachedSubtree> subtree);

  /// Snapshot of the counters.
  DecompCacheStats stats() const;

  /// Number of lock shards.
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Entries currently stored, per shard (index-aligned with the shard
  /// ids). Takes each shard lock in turn; values from different shards
  /// are not a consistent cut under concurrent writers.
  std::vector<size_t> ShardEntryCounts() const;

  /// Total entries currently stored (sum of ShardEntryCounts()).
  size_t NumEntries() const;

  /// Drops all entries (counters are kept).
  void Clear();

 private:
  struct Entry {
    int meta = 0;
    std::shared_ptr<const CachedSubtree> subtree;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<Bitset, Entry> map;
  };

  // Bump the per-instance atomic and its process-wide metrics mirror.
  void CountHit();
  void CountMiss();
  void CountInsert();

  Shard& ShardFor(const Bitset& key) {
    HT_DCHECK(!shards_.empty());
    const size_t shard = std::hash<Bitset>{}(key) % shards_.size();
    HT_DCHECK_LT(shard, shards_.size());
    HT_DCHECK(shards_[shard] != nullptr);
    return *shards_[shard];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> inserts_{0};
};

}  // namespace hypertree

#endif  // HYPERTREE_SEARCH_DECOMP_CACHE_H_
