// The relational layer's two hash tables, both open addressing with
// linear probing, sized once for their worst case at load factor 0.5 so
// they never grow:
//   CodeTable     uint64_t key code -> first-insert ordinal. The morsel
//                 engine's join and counting key groups, semijoin key
//                 sets, grace partitions and projection dedup.
//   KeyNumbering  key tuple of a row -> first-insert number. The
//                 engine's numbered key codes and projections, and the
//                 constraint membership checks of bag enumeration and
//                 backtracking.
// Inserts need exclusive access; lookups are const, so any number of
// threads may probe a filled table concurrently.

#ifndef HYPERTREE_CSP_KEY_TABLES_H_
#define HYPERTREE_CSP_KEY_TABLES_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "csp/relation.h"
#include "kernels/kernels.h"
#include "util/check.h"

namespace hypertree {

/// Smallest power of two >= n, and at least 16 (the tables' capacity).
inline size_t NextPow2AtLeast(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Hash of `row[pos[0..k)]` without materializing the key: each element
/// is folded into the running state through a full splitmix64 round, so
/// small dense CSP domains do not collide the way additive FNV-style
/// mixing does.
inline uint64_t HashRowKey(const int* row, const int* pos, int k) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < k; ++i) {
    h = SplitMix64(h +
                   static_cast<uint64_t>(static_cast<uint32_t>(row[pos[i]])));
  }
  return h;
}

/// KeyNumbering::Find's result for a tuple the table lacks: above every
/// number, so the engine's zone maps and range checks skip the row.
inline constexpr uint64_t kAbsentCode = ~uint64_t{0};

/// Maps key codes to their first-insert ordinals 0, 1, 2, ... Slots are
/// probed from kernels::SplitMix64(code) and laid out as the ProbeKeys
/// kernel reads them (slot_vals[s] == -1 marks an empty slot), so the
/// slot layout is a pure function of the capacity and the insert order.
class CodeTable {
 public:
  CodeTable() = default;
  /// Room for up to `n` distinct codes.
  explicit CodeTable(size_t n)
      : mask_(NextPow2AtLeast(n * 2) - 1),
        keys_(mask_ + 1, 0),
        vals_(mask_ + 1, -1) {}

  /// Ordinal of `code`, giving it the next one when it is new. Adds the
  /// occupied non-matching slots stepped past to *collisions.
  int32_t Insert(uint64_t code, long* collisions) {
    size_t slot = kernels::SplitMix64(code) & mask_;
    while (vals_[slot] != -1 && keys_[slot] != code) {
      ++*collisions;
      slot = (slot + 1) & mask_;
    }
    if (vals_[slot] == -1) {
      // Load-factor contract: probes stay O(1), and terminate, only while
      // at most half the slots are taken. (A plain HT_CHECK keeps this
      // method small enough for the per-row loops to inline it.)
      HT_CHECK((static_cast<size_t>(size_) + 1) * 2 <= vals_.size())
          << "code table exceeds its 0.5 load factor";
      vals_[slot] = size_++;
      keys_[slot] = code;
    }
    return vals_[slot];
  }

  /// Ordinal of each code in codes[0, n) into out[0, n), -1 for a code
  /// the table lacks (the ProbeKeys kernel). Returns the occupied
  /// non-matching slots stepped past.
  long Probe(const uint64_t* codes, int n, int32_t* out) const {
    return kernels::Active().ProbeKeys(out, codes, n, keys_.data(),
                                       vals_.data(), mask_);
  }

  int size() const { return size_; }
  size_t bytes() const {
    return keys_.capacity() * sizeof(uint64_t) +
           vals_.capacity() * sizeof(int32_t);
  }
  /// bytes() of a CodeTable(n), without building it.
  static size_t BytesFor(size_t n) {
    return NextPow2AtLeast(n * 2) * (sizeof(uint64_t) + sizeof(int32_t));
  }

 private:
  uint64_t mask_ = 0;
  int32_t size_ = 0;
  std::vector<uint64_t> keys_;  // code per slot
  std::vector<int32_t> vals_;   // ordinal per slot, -1 empty
};

/// Numbers distinct key tuples 0, 1, 2, ... in first-insert order. Slots
/// are probed from HashRowKey and hold numbers; the numbered tuples sit
/// contiguously (k values each), so a numbered projection's output is
/// the table's tuple store.
class KeyNumbering {
 public:
  KeyNumbering() = default;
  /// Room for up to `rows` distinct tuples of k columns.
  KeyNumbering(int k, long rows) : k_(k) {
    slots_.assign(NextPow2AtLeast(static_cast<size_t>(rows) * 2), -1);
    mask_ = slots_.size() - 1;
    tuples_.reserve(static_cast<size_t>(rows) * k);
  }

  /// Number of the tuple row[pos[0, k)], numbering it when it is new.
  /// Adds the occupied non-matching slots stepped past to *collisions.
  uint64_t Insert(const int* row, const int* pos, long* collisions) {
    const size_t slot = Slot(row, pos, collisions);
    if (slots_[slot] == -1) {
      // Load-factor contract, as in CodeTable::Insert.
      HT_CHECK((static_cast<size_t>(size_) + 1) * 2 <= slots_.size())
          << "key numbering exceeds its 0.5 load factor";
      slots_[slot] = size_++;
      for (int i = 0; i < k_; ++i) tuples_.push_back(row[pos[i]]);
    }
    return static_cast<uint64_t>(slots_[slot]);
  }

  /// Number of the tuple row[pos[0, k)], or kAbsentCode.
  uint64_t Find(const int* row, const int* pos, long* collisions) const {
    const int32_t n = slots_[Slot(row, pos, collisions)];
    return n == -1 ? kAbsentCode : static_cast<uint64_t>(n);
  }

  int size() const { return size_; }
  size_t bytes() const {
    return slots_.capacity() * sizeof(int32_t) +
           tuples_.capacity() * sizeof(int);
  }
  /// The numbered tuples, k values each, in number order.
  std::vector<int> TakeTuples() { return std::move(tuples_); }

 private:
  // The slot holding the tuple, or the empty slot it would take.
  size_t Slot(const int* row, const int* pos, long* collisions) const {
    size_t slot = HashRowKey(row, pos, k_) & mask_;
    while (slots_[slot] != -1) {
      const int* t =
          tuples_.data() + static_cast<size_t>(slots_[slot]) * k_;
      int i = 0;
      while (i < k_ && t[i] == row[pos[i]]) ++i;
      if (i == k_) break;
      ++*collisions;
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  int k_ = 0;
  size_t mask_ = 0;
  int32_t size_ = 0;
  std::vector<int32_t> slots_;  // number per slot, -1 empty
  std::vector<int> tuples_;
};

/// A KeyNumbering of every row of `r` (all its columns): a membership
/// table, where Find(row, pos, ...) != kAbsentCode exactly when the
/// tuple row[pos[0, Arity())] is a row of `r`. Building it feeds no
/// metrics counter.
inline KeyNumbering NumberRows(const Relation& r) {
  std::vector<int> pos(static_cast<size_t>(r.Arity()));
  std::iota(pos.begin(), pos.end(), 0);
  KeyNumbering table(r.Arity(), r.Size());
  long uncharged = 0;
  for (int i = 0; i < r.Size(); ++i) {
    table.Insert(r.Row(i), pos.data(), &uncharged);
  }
  return table;
}

}  // namespace hypertree

#endif  // HYPERTREE_CSP_KEY_TABLES_H_
