// Named relations with the operators the decomposition-based solvers need:
// natural join, semijoin and projection — implemented as a flat-storage
// kernel. Tuples live in one contiguous row-major buffer (arity-stride
// access, no per-tuple heap allocation). Join, semijoin and projection
// delegate to the morsel engine (csp/morsel_engine.h), which turns key
// columns into one 64-bit code per row; semijoin is an in-place
// swap-compaction. A Relation is a plain value: it keeps no index, so
// membership checks go through a KeyNumbering of its rows
// (csp/key_tables.h).
//
// Thread-safety contract: concurrent const access (Join / Semijoin /
// Project / row reads) is safe. Mutation (AddTuple / AddRow /
// SemijoinInPlace) requires exclusive access, like any standard
// container.
//
// The kernel feeds the process-wide metrics registry (see
// docs/BENCHMARKS.md): relation.rows_joined, relation.rows_semijoin_dropped,
// relation.probe_collisions and relation.bytes_allocated.

#ifndef HYPERTREE_CSP_RELATION_H_
#define HYPERTREE_CSP_RELATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "kernels/kernels.h"
#include "util/check.h"

namespace hypertree {

/// splitmix64 finalizer: a cheap, statistically strong 64-bit mixer
/// (Steele et al.). The canonical definition lives in kernels/kernels.h
/// so the SIMD probe kernels and the spill partitioner mix
/// bit-identically.
inline uint64_t SplitMix64(uint64_t x) { return kernels::SplitMix64(x); }

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

  Relation(const Relation& other) = default;
  Relation& operator=(const Relation& other) = default;
  // Moves leave the source empty (no schema, no rows).
  Relation(Relation&& other) noexcept
      : schema_(std::move(other.schema_)),
        data_(std::move(other.data_)),
        rows_(std::exchange(other.rows_, 0)) {}
  Relation& operator=(Relation&& other) noexcept {
    if (this == &other) return *this;
    schema_ = std::move(other.schema_);
    data_ = std::move(other.data_);
    rows_ = std::exchange(other.rows_, 0);
    return *this;
  }

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

  /// Appends a row of Arity() values. Inline: bulk loaders (bag
  /// enumeration) append tens of millions of rows.
  void AddRow(const int* row) {
    data_.insert(data_.end(), row, row + schema_.size());
    ++rows_;
  }

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

 private:
  // Raw-buffer seam for the morsel engine (relation_internal.h): the
  // engine writes join/project output straight into data_ and compacts
  // semijoin survivors in place.
  friend struct RelationInternal;

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
};

}  // namespace hypertree

#endif  // HYPERTREE_CSP_RELATION_H_
