// Shared memo table for the exact decomposition searches.
//
// Two usage patterns share one keyed store:
//
//  1. det-k-decomp subproblem memoization (Gottlob, Leone & Scarcello's
//     detkdecomp): key (component, connector, k). A *negative* entry
//     records that the component provably has no hypertree decomposition
//     of width <= k under that connector; a *positive* entry additionally
//     stores the witness subtree so later hits splice it instead of
//     re-deriving it. Both are order-independent facts, which is what
//     makes the table safe to share across concurrent search workers.
//
//  2. Whole-instance witness entries for the decomposition service
//     (src/serve): key is the 128-bit content hash of the normalized
//     instance (as a Bitset), the value a caller-packed meta word plus
//     the full decomposition as a CachedSubtree. This is the in-memory
//     level of the serve cache; the on-disk level serializes the same
//     witnesses through src/io/ghd_format.
//
// The table is sharded by key hash; every shard has its own mutex, so
// concurrent workers rarely contend. Hit/miss/insert counters are
// maintained with relaxed atomics and reported via stats().

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
/// subtree-relative parent indices (-1 marks the subtree root, which the
/// splicing search re-parents under its current node).
struct CachedSubtree {
  std::vector<Bitset> chi;
  std::vector<std::vector<int>> lambda;
  std::vector<int> parent;
};

/// Thread-safe memo table keyed on (Bitset, Bitset, int).
class DecompCache {
 public:
  enum class Outcome { kUnknown, kPositive, kNegative };

  /// `num_shards` independent lock domains (rounded up to at least 1).
  explicit DecompCache(int num_shards = 16);

  /// Looks up a det-k subproblem. On kPositive, `*subtree` (when non-null)
  /// receives the recorded witness.
  Outcome Lookup(const Bitset& component, const Bitset& connector, int k,
                 std::shared_ptr<const CachedSubtree>* subtree = nullptr);

  /// Records that (component, connector) has no width-<=k decomposition.
  void InsertNegative(const Bitset& component, const Bitset& connector, int k);

  /// Records a witness subtree for (component, connector, k).
  void InsertPositive(const Bitset& component, const Bitset& connector, int k,
                      std::shared_ptr<const CachedSubtree> subtree);

  /// Whole-instance witness lookup (serve keyspace, see file comment).
  /// On kPositive, `*meta` / `*subtree` (when non-null) receive the
  /// stored meta word and decomposition.
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
  struct Key {
    Bitset a;
    Bitset b;
    int k;
    bool operator==(const Key& o) const {
      return k == o.k && a == o.a && b == o.b;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      uint64_t h = key.a.Hash();
      h ^= key.b.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(key.k) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Outcome outcome = Outcome::kUnknown;
    int value = 0;
    std::shared_ptr<const CachedSubtree> subtree;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map;
  };

  // Bump the per-instance atomic and its process-wide metrics mirror.
  void CountHit();
  void CountMiss();
  void CountInsert();

  Shard& ShardFor(const Key& key) {
    HT_DCHECK(!shards_.empty());
    const size_t shard = KeyHash{}(key) % shards_.size();
    HT_DCHECK_LT(shard, shards_.size());
    HT_DCHECK(shards_[shard] != nullptr);
    return *shards_[shard];
  }
  static Key InstanceKey(const Bitset& key) {
    // Whole-instance witness entries live under k = -2 (disjoint from the
    // det-k space, k >= 1).
    return Key{key, Bitset(), -2};
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> inserts_{0};
};

}  // namespace hypertree

#endif  // HYPERTREE_SEARCH_DECOMP_CACHE_H_
