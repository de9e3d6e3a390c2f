// Named relations with the operators the decomposition-based solvers need:
// natural join, semijoin, projection and membership — implemented as a
// flat-storage kernel. Tuples live in one contiguous row-major buffer
// (arity-stride access, no per-tuple heap allocation). Join, semijoin and
// projection delegate to the morsel engine (csp/morsel_engine.h), which
// turns key columns into one 64-bit code per row; semijoin is an in-place
// swap-compaction; and a lazily built per-relation hash index over whole
// rows makes Contains O(1) amortized.
//
// Thread-safety contract: concurrent const access (Join / Semijoin /
// Project / Contains / row reads) is safe, including the lazy index build
// (published with a compare-and-swap; losing builders discard their
// copy). Mutation (AddTuple / AddRow / InsertIfAbsent / SemijoinInPlace)
// requires exclusive access, like any standard container.
//
// The kernel feeds the process-wide metrics registry (see
// docs/BENCHMARKS.md): relation.rows_joined, relation.rows_semijoin_dropped,
// relation.probe_collisions and relation.bytes_allocated.

#ifndef HYPERTREE_CSP_RELATION_H_
#define HYPERTREE_CSP_RELATION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "kernels/kernels.h"
#include "util/check.h"

namespace hypertree {

/// splitmix64 finalizer: a cheap, statistically strong 64-bit mixer
/// (Steele et al.). Used per key element so small dense CSP domains do
/// not collide the way additive FNV-style mixing does. The canonical
/// definition lives in kernels/kernels.h so the SIMD probe kernels and
/// the spill partitioner mix bit-identically.
inline uint64_t SplitMix64(uint64_t x) { return kernels::SplitMix64(x); }

/// Hash of `row[pos[0..k)]` without materializing the key: each element is
/// folded into the running state through a full splitmix64 round (the
/// engine's key numbering hashes its tuples with it).
inline uint64_t HashRowKey(const int* row, const int* pos, int k) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < k; ++i) {
    h = SplitMix64(h + static_cast<uint64_t>(static_cast<uint32_t>(row[pos[i]])));
  }
  return h;
}

/// Hash of `k` contiguous values (identity positions).
inline uint64_t HashRowValues(const int* row, int k) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < k; ++i) {
    h = SplitMix64(h + static_cast<uint64_t>(static_cast<uint32_t>(row[i])));
  }
  return h;
}

/// A relation over CSP variables: a schema (variable ids) plus tuples of
/// values aligned with the schema, stored row-major in one flat buffer.
class Relation {
 public:
  Relation() = default;

  /// Creates an empty relation with the given schema (variable ids must
  /// be distinct — a duplicate column would make join/project positions
  /// ambiguous).
  explicit Relation(std::vector<int> schema) : schema_(std::move(schema)) {
    DCheckSchemaUnique();
  }
  ~Relation();

  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const std::vector<int>& schema() const { return schema_; }
  int Arity() const { return static_cast<int>(schema_.size()); }
  int Size() const { return rows_; }
  bool Empty() const { return rows_ == 0; }

  /// The flat row-major value buffer (Size() * Arity() ints).
  const std::vector<int>& data() const { return data_; }

  /// Pointer to row `i` (valid for Arity() values). Arity-0 relations
  /// return the buffer base for every row.
  const int* Row(int i) const {
    HT_DCHECK_GE(i, 0);
    HT_DCHECK_LT(i, rows_);
    return data_.data() + static_cast<size_t>(i) * schema_.size();
  }

  /// Materializes the tuples as vectors (tests / output paths; O(n)).
  std::vector<std::vector<int>> ToTuples() const;

  /// Appends a tuple (must match the schema arity).
  void AddTuple(const std::vector<int>& tuple);

  /// Appends a row of Arity() values. Inline fast path: bulk loaders
  /// (bag enumeration) append tens of millions of rows; the out-of-line
  /// part only runs while a row index is published.
  void AddRow(const int* row) {
    data_.insert(data_.end(), row, row + schema_.size());
    ++rows_;
    if (index_.load(std::memory_order_relaxed) != nullptr) AddRowToIndex();
  }

  /// Appends the row unless an equal row is already present; returns true
  /// when the row was added. O(1) amortized (keeps the row index fresh),
  /// so tuple deduplication loops are linear, not quadratic.
  bool InsertIfAbsent(const int* row);

  /// Reserves space for `num_rows` rows.
  void Reserve(int num_rows);

  /// Position of variable `var` in the schema, or -1.
  int IndexOf(int var) const;

  /// Natural join with `other` (hash join on the shared variables; output
  /// rows keep this relation's row order, ties in other's row order).
  Relation Join(const Relation& other) const;

  /// Semijoin: keeps the tuples of *this that match some tuple of `other`
  /// on the shared variables.
  Relation Semijoin(const Relation& other) const;

  /// In-place semijoin: filters *this against `other` by swap-compaction
  /// of the flat buffer (no copy of the survivors, row order preserved).
  /// `other` must not alias *this.
  void SemijoinInPlace(const Relation& other);

  /// Projection onto `vars` (must be a subset of the schema; duplicates
  /// are removed, first occurrence wins the output order).
  Relation Project(const std::vector<int>& vars) const;

  /// True if the tuple (over this schema) is present. O(1) amortized via
  /// a lazily built hash index over the rows.
  bool Contains(const std::vector<int>& tuple) const;

  /// Contains() for a raw row of Arity() values.
  bool ContainsRow(const int* row) const;

 private:
  struct RowIndex;
  // Raw-buffer seam for the morsel engine (relation_internal.h): the
  // engine writes join/project output straight into data_ and compacts
  // semijoin survivors in place.
  friend struct RelationInternal;

  // Below this row count, ContainsRow scans the flat buffer instead of
  // building an index (a contiguous scan beats hashing for the tiny
  // constraint tables bag enumeration probes millions of times).
  static constexpr int kScanThreshold = 16;

  // Returns the up-to-date index, building and publishing it if missing.
  const RowIndex* EnsureIndex() const;
  // Deletes any published index (mutation paths that invalidate it).
  void DropIndex();
  // Probes `idx` for `row`; returns true if an equal row exists.
  bool ProbeIndex(const RowIndex& idx, const int* row) const;
  // Inserts row id `r` into `idx` (caller guarantees capacity and
  // exclusive access). Returns false if an equal row already exists.
  bool InsertIntoIndex(RowIndex* idx, int r, bool check_duplicate) const;
  // Grows `idx` to hold at least one more row at load factor <= 0.7.
  void MaybeGrowIndex(RowIndex* idx) const;
  // Out-of-line tail of AddRow: appends the last row to the published index.
  void AddRowToIndex();

  // Flat-buffer representation invariant: the value buffer holds exactly
  // rows_ * Arity() values. Compiled out under NDEBUG; mutation paths
  // call it on entry and exit.
  void DCheckRep() const {
    HT_DCHECK_EQ(data_.size(), static_cast<size_t>(rows_) * schema_.size());
    HT_DCHECK_GE(rows_, 0);
  }
  // Schema columns must be distinct variable ids (checked on
  // construction; O(arity^2) over the tiny schemas involved).
  void DCheckSchemaUnique() const {
    if (!ht_internal::kDCheckEnabled) return;
    for (size_t i = 0; i < schema_.size(); ++i) {
      for (size_t j = i + 1; j < schema_.size(); ++j) {
        HT_DCHECK_NE(schema_[i], schema_[j])
            << "duplicate variable in relation schema";
      }
    }
  }

  std::vector<int> schema_;
  std::vector<int> data_;  // row-major, rows_ * Arity() values
  int rows_ = 0;           // explicit: arity-0 relations still have rows
  // Lazily built row index; see the thread-safety contract above.
  mutable std::atomic<RowIndex*> index_{nullptr};
};

}  // namespace hypertree

#endif  // HYPERTREE_CSP_RELATION_H_
