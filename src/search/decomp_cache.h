// The in-memory level of the decomposition service's cache (src/serve),
// plus the cache counters every memoizing search reports.
//
// DecompCache holds whole-instance witness entries: the key is the 128-bit
// content hash of the normalized instance (as a Bitset), the value a
// caller-packed meta word plus the full decomposition as a CachedSubtree.
// The on-disk level serializes the same witnesses through
// src/io/ghd_format.
//
// The table is one hash map behind one mutex: the service handles one
// request at a time, and the lock covers a reader on another thread (a
// client replaying traffic in the same process) probing it while the
// service writes. Hit/miss/insert counters are kept under the same lock
// and reported via stats().
//
// The exact searches run on one thread each and keep their memos in
// private tables (det-k's subproblem memo, the elimination searches'
// BestGTable); they count with DecompCacheStats and publish through
// AddDecompCacheMetrics.

#ifndef HYPERTREE_SEARCH_DECOMP_CACHE_H_
#define HYPERTREE_SEARCH_DECOMP_CACHE_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/bitset.h"

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

  /// Entries currently stored.
  size_t NumEntries() const;

  /// Drops all entries (counters are kept).
  void Clear();

 private:
  struct Entry {
    int meta = 0;
    std::shared_ptr<const CachedSubtree> subtree;
  };

  mutable std::mutex mu_;
  std::unordered_map<Bitset, Entry> map_;
  DecompCacheStats stats_;
};

}  // namespace hypertree

#endif  // HYPERTREE_SEARCH_DECOMP_CACHE_H_
