// The persistent, content-addressed witness store behind the
// decomposition service, plus the canonical witness representation the
// two cache levels share.
//
// Level 1 (memory) is the DecompCache: whole-instance entries
// keyed by the 128-bit content hash, each holding the decomposition as
// a CachedSubtree (parent-first node order) and a packed meta word.
// Level 2 (disk) stores, per key K under <dir>/<K[0:2]>/:
//
//   K.ghd    the witness in src/io/ghd_format text
//   K.json   meta: width/lower_bound/exact/vertices/edges/solver plus
//            the canonical instance text (hit-time verification against
//            hash collisions; written last as the commit marker)
//
// Both files are written to a temp name and renamed into place, so a
// killed server never leaves a half-written entry that Load would
// accept. All response witnesses — cold solve, memory hit, disk hit —
// are generated by CanonicalWitnessText from the same CachedSubtree (or
// read back from the identical stored bytes), which is what makes hits
// byte-identical to the original solve.

#ifndef HYPERTREE_SERVE_CACHE_STORE_H_
#define HYPERTREE_SERVE_CACHE_STORE_H_

#include <optional>
#include <string>

#include "ghd/ghd.h"
#include "hypergraph/hypergraph.h"
#include "search/decomp_cache.h"

namespace hypertree::serve {

/// Meta carried next to a stored witness. `width`/`lower_bound` must fit
/// 15 bits each (hypergraph widths are tiny; enforced on pack).
struct WitnessMeta {
  int width = 0;
  int lower_bound = 0;
  bool exact = false;
};

/// Packs meta into the DecompCache entry's int value slot.
int PackMeta(const WitnessMeta& meta);
WitnessMeta UnpackMeta(int packed);

/// Re-encodes a GHD as a CachedSubtree: nodes reordered parent-first by
/// a DFS from the lowest-indexed node of each tree component (so any
/// input node order canonicalizes to one representative), parents as
/// subtree-relative indices, -1 marking component roots.
CachedSubtree SubtreeFromGhd(const GeneralizedHypertreeDecomposition& ghd);

/// Rebuilds the GHD from a CachedSubtree over a universe of
/// `num_vertices` vertices. Tree edges are added as (parent, child) in
/// node order, so the reconstruction is a deterministic function of the
/// subtree alone.
GeneralizedHypertreeDecomposition GhdFromSubtree(const CachedSubtree& subtree);

/// The canonical witness serialization: GhdFromSubtree + WriteGhd
/// against `h` (the normalized instance, whose name is the content
/// key). Byte-identical for equal subtrees.
std::string CanonicalWitnessText(const CachedSubtree& subtree,
                                 const Hypergraph& h);

/// One disk entry, as stored/loaded.
struct StoredWitness {
  std::string witness_text;  // ghd_format bytes
  WitnessMeta meta;
  int vertices = 0;
  int edges = 0;
  std::string solver;  // e.g. "portfolio"
};

/// Parses the text of a stored meta file (K.json) for the instance whose
/// canonical text is `canonical_text`, touching no file. Returns the
/// entry's meta, counts and solver with an empty witness_text, or
/// nullopt with the reason in `*error` (when non-null) when the text is
/// not a JSON object, names another instance, or holds a width, lower
/// bound or count that is not a non-negative integer in range. Every
/// accepted meta packs: width and lower bound fit PackMeta's 15 bits.
std::optional<StoredWitness> ParseStoredMeta(const std::string& meta_text,
                                             const std::string& canonical_text,
                                             std::string* error = nullptr);

/// The on-disk level. All methods are safe against concurrent readers
/// of the same directory; concurrent writers of the SAME key race
/// benignly (last rename wins with identical content).
///
/// When `max_bytes` > 0 the store enforces a total-size cap with LRU
/// eviction: every Store is followed by an eviction pass that deletes
/// least-recently-used entries until the directory fits the cap again.
/// Recency is the meta file's mtime — bumped on every Load hit — so the
/// LRU order is itself persistent: a restarted server with the same
/// cache dir continues evicting in the order established before the
/// restart. The just-stored entry is never evicted by its own pass, so
/// one oversized witness degrades the cache to that single entry rather
/// than making Store fail.
class PersistentCacheStore {
 public:
  /// `dir` empty disables the disk level (Load misses, Store no-ops).
  /// `max_bytes` 0 means uncapped.
  explicit PersistentCacheStore(std::string dir, long long max_bytes = 0);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  long long max_bytes() const { return max_bytes_; }

  /// Total bytes of all entry files (.ghd + .json) currently on disk.
  /// Scans the directory; intended for stats and tests, not hot paths.
  long long DiskUsageBytes() const;

  /// Loads the entry for `key`, verifying the stored canonical text
  /// equals `canonical_text` (hash-collision guard) and that the witness
  /// parses. Returns nullopt on miss; a corrupt entry counts as a miss
  /// and reports its reason via `*error` (when non-null).
  std::optional<StoredWitness> Load(const std::string& key,
                                    const std::string& canonical_text,
                                    std::string* error = nullptr) const;

  /// Atomically persists the entry for `key`. Returns false with
  /// `*error` on I/O failure.
  bool Store(const std::string& key, const std::string& canonical_text,
             const StoredWitness& witness, std::string* error = nullptr) const;

 private:
  std::string EntryPath(const std::string& key, const char* ext) const;

  // Deletes least-recently-used entries (oldest meta mtime first, key
  // order breaking ties) until the directory fits max_bytes_ again.
  // `protect_key` (the entry just stored) is never deleted.
  void EvictToCap(const std::string& protect_key) const;

  std::string dir_;
  long long max_bytes_ = 0;
};

}  // namespace hypertree::serve

#endif  // HYPERTREE_SERVE_CACHE_STORE_H_
