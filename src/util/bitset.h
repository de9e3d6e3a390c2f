// A dynamically sized bitset specialized for the vertex/edge sets that
// decomposition algorithms manipulate: unions, intersections, population
// counts, subset tests and iteration over set bits.
//
// std::vector<bool> lacks word-level operations and std::bitset is fixed
// size, so the exact algorithms (branch and bound, A*, det-k-decomp) use
// this type for O(n/64) set algebra.

#ifndef HYPERTREE_UTIL_BITSET_H_
#define HYPERTREE_UTIL_BITSET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "util/check.h"

namespace hypertree {

/// Dynamically sized bitset with word-parallel set algebra.
///
/// Sets of up to 64 elements are stored inline (no heap allocation), which
/// matters because the exact searches copy bitsets on every node: memo
/// table keys, neighborhoods, bag covers. Larger universes fall back to a
/// heap array.
///
/// Heap storage follows the kernel layer's padded-capacity contract
/// (src/kernels/kernels.h): 32-byte aligned, capacity rounded up to a
/// whole number of 4-word (256-bit) lanes, padding words always zero.
/// Every mutator preserves the zero-padding invariant, so Words() can be
/// handed to vector kernels directly.
class Bitset {
 public:
  /// Heap alignment in bytes (one AVX2 lane).
  static constexpr size_t kWordAlignment = 32;

  /// Allocated words for an `nwords`-word set: inline sets stay one
  /// word, heap sets round up to whole 4-word lanes.
  static constexpr int PaddedWords(int nwords) {
    return nwords <= 1 ? nwords : (nwords + 3) & ~3;
  }

  Bitset() : size_(0), nwords_(0), word_(0) {}

  /// Creates a bitset holding `size` bits, all zero.
  explicit Bitset(int size) : size_(size), nwords_((size + 63) / 64) {
    if (nwords_ > 1) {
      heap_ = AllocWords(nwords_);
    } else {
      word_ = 0;
    }
  }

  Bitset(const Bitset& o) : size_(o.size_), nwords_(o.nwords_) {
    if (nwords_ > 1) {
      heap_ = AllocWords(nwords_);
      std::memcpy(heap_, o.heap_, sizeof(uint64_t) * nwords_);
    } else {
      word_ = o.word_;
    }
  }

  Bitset(Bitset&& o) noexcept : size_(o.size_), nwords_(o.nwords_) {
    if (nwords_ > 1) {
      heap_ = o.heap_;
    } else {
      word_ = o.word_;
    }
    o.size_ = 0;
    o.nwords_ = 0;
    o.word_ = 0;
  }

  Bitset& operator=(const Bitset& o) {
    if (this == &o) return *this;
    if (nwords_ == o.nwords_) {  // reuse existing storage
      size_ = o.size_;
      if (nwords_ > 1) {
        std::memcpy(heap_, o.heap_, sizeof(uint64_t) * nwords_);
      } else {
        word_ = o.word_;
      }
      return *this;
    }
    if (nwords_ > 1) FreeWords(heap_);
    size_ = o.size_;
    nwords_ = o.nwords_;
    if (nwords_ > 1) {
      heap_ = AllocWords(nwords_);
      std::memcpy(heap_, o.heap_, sizeof(uint64_t) * nwords_);
    } else {
      word_ = o.word_;
    }
    return *this;
  }

  Bitset& operator=(Bitset&& o) noexcept {
    if (this == &o) return *this;
    if (nwords_ > 1) FreeWords(heap_);
    size_ = o.size_;
    nwords_ = o.nwords_;
    if (nwords_ > 1) {
      heap_ = o.heap_;
    } else {
      word_ = o.word_;
    }
    o.size_ = 0;
    o.nwords_ = 0;
    o.word_ = 0;
    return *this;
  }

  ~Bitset() {
    if (nwords_ > 1) FreeWords(heap_);
  }

  /// Number of bits (the universe size, not the population count).
  int size() const { return size_; }

  /// Sets bit `i` to one.
  void Set(int i) {
    HT_DCHECK(i >= 0 && i < size_);
    words()[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
  }

  /// Clears bit `i`.
  void Reset(int i) {
    HT_DCHECK(i >= 0 && i < size_);
    words()[static_cast<size_t>(i) >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  /// Returns whether bit `i` is set.
  bool Test(int i) const {
    HT_DCHECK(i >= 0 && i < size_);
    return (words()[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1;
  }

  /// Clears all bits.
  void Clear() { std::fill(words(), words() + nwords_, uint64_t{0}); }

  /// Sets all bits in [0, size).
  void SetAll() {
    std::fill(words(), words() + nwords_, ~uint64_t{0});
    TrimTail();
  }

  /// Number of set bits.
  int Count() const {
    const uint64_t* w = words();
    int c = 0;
    for (int i = 0; i < nwords_; ++i) c += __builtin_popcountll(w[i]);
    return c;
  }

  /// True if no bit is set.
  bool None() const {
    const uint64_t* w = words();
    for (int i = 0; i < nwords_; ++i)
      if (w[i] != 0) return false;
    return true;
  }

  /// True if any bit is set.
  bool Any() const { return !None(); }

  /// Index of the lowest set bit, or -1 if empty.
  int First() const {
    const uint64_t* w = words();
    for (int i = 0; i < nwords_; ++i)
      if (w[i] != 0)
        return static_cast<int>(i * 64 + __builtin_ctzll(w[i]));
    return -1;
  }

  /// Index of the lowest set bit strictly greater than `i`, or -1.
  int Next(int i) const {
    ++i;
    if (i >= size_) return -1;
    const uint64_t* ws = words();
    int w = i >> 6;
    uint64_t cur = ws[w] & (~uint64_t{0} << (i & 63));
    while (true) {
      if (cur != 0) return static_cast<int>(w * 64 + __builtin_ctzll(cur));
      if (++w >= nwords_) return -1;
      cur = ws[w];
    }
  }

  /// In-place union.
  Bitset& operator|=(const Bitset& o) {
    HT_DCHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (int i = 0; i < nwords_; ++i) w[i] |= ow[i];
    return *this;
  }

  /// In-place intersection.
  Bitset& operator&=(const Bitset& o) {
    HT_DCHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (int i = 0; i < nwords_; ++i) w[i] &= ow[i];
    return *this;
  }

  /// In-place set difference (this \ o).
  Bitset& operator-=(const Bitset& o) {
    HT_DCHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (int i = 0; i < nwords_; ++i) w[i] &= ~ow[i];
    return *this;
  }

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator-(Bitset a, const Bitset& b) { return a -= b; }

  bool operator==(const Bitset& o) const {
    if (size_ != o.size_) return false;
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (int i = 0; i < nwords_; ++i)
      if (w[i] != ow[i]) return false;
    return true;
  }
  bool operator!=(const Bitset& o) const { return !(*this == o); }

  /// True if this is a subset of `o`.
  bool IsSubsetOf(const Bitset& o) const {
    HT_DCHECK(size_ == o.size_);
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (int i = 0; i < nwords_; ++i)
      if ((w[i] & ~ow[i]) != 0) return false;
    return true;
  }

  /// Non-allocating three-address ops for scratch-arena slots: the
  /// destination must already have the operands' universe size, so the
  /// assignment is a pure word loop (no resize, no heap traffic). The
  /// exact searches run their inner separator/component loops entirely
  /// on preallocated slots through these.

  /// this = a | b.
  void AssignOr(const Bitset& a, const Bitset& b) {
    HT_DCHECK(size_ == a.size_ && size_ == b.size_);
    uint64_t* w = words();
    const uint64_t* aw = a.words();
    const uint64_t* bw = b.words();
    for (int i = 0; i < nwords_; ++i) w[i] = aw[i] | bw[i];
  }

  /// this = a & b.
  void AssignAnd(const Bitset& a, const Bitset& b) {
    HT_DCHECK(size_ == a.size_ && size_ == b.size_);
    uint64_t* w = words();
    const uint64_t* aw = a.words();
    const uint64_t* bw = b.words();
    for (int i = 0; i < nwords_; ++i) w[i] = aw[i] & bw[i];
  }

  /// this = a & ~b.
  void AssignAndNot(const Bitset& a, const Bitset& b) {
    HT_DCHECK(size_ == a.size_ && size_ == b.size_);
    uint64_t* w = words();
    const uint64_t* aw = a.words();
    const uint64_t* bw = b.words();
    for (int i = 0; i < nwords_; ++i) w[i] = aw[i] & ~bw[i];
  }

  /// this = a \ b (alias of AssignAndNot, named for set-difference call
  /// sites).
  void AssignDiff(const Bitset& a, const Bitset& b) { AssignAndNot(a, b); }

  /// True if this ∩ a ∩ ~b is non-empty, i.e. this intersects (a \ b),
  /// without materializing either intermediate.
  bool IntersectsAndNot(const Bitset& a, const Bitset& b) const {
    HT_DCHECK(size_ == a.size_ && size_ == b.size_);
    const uint64_t* w = words();
    const uint64_t* aw = a.words();
    const uint64_t* bw = b.words();
    for (int i = 0; i < nwords_; ++i)
      if ((w[i] & aw[i] & ~bw[i]) != 0) return true;
    return false;
  }

  /// Appends the set bits (ascending) to `out` without clearing it.
  /// Reserves the exact final size first, so repeated calls on hot
  /// paths never reallocate more than once.
  void AppendTo(std::vector<int>* out) const {
    out->reserve(out->size() + static_cast<size_t>(Count()));
    for (int i = First(); i >= 0; i = Next(i)) out->push_back(i);
  }

  /// True if this and `o` share at least one set bit.
  bool Intersects(const Bitset& o) const {
    HT_DCHECK(size_ == o.size_);
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (int i = 0; i < nwords_; ++i)
      if ((w[i] & ow[i]) != 0) return true;
    return false;
  }

  /// Population count of the intersection, without materializing it.
  int IntersectCount(const Bitset& o) const {
    HT_DCHECK(size_ == o.size_);
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    int c = 0;
    for (int i = 0; i < nwords_; ++i)
      c += __builtin_popcountll(w[i] & ow[i]);
    return c;
  }

  /// The set bits as a sorted vector of indices.
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(Count());
    for (int i = First(); i >= 0; i = Next(i)) out.push_back(i);
    return out;
  }

  /// Builds a bitset of universe `size` with the given bits set.
  static Bitset FromVector(int size, const std::vector<int>& bits) {
    Bitset b(size);
    for (int i : bits) b.Set(i);
    return b;
  }

  /// Number of 64-bit words backing the set.
  int NumWords() const { return nwords_; }

  /// The `i`-th backing word (bits [64i, 64i+64)).
  uint64_t Word(int i) const {
    HT_DCHECK(i >= 0 && i < nwords_);
    return words()[i];
  }

  /// Raw backing words for the kernel layer (src/kernels). The buffer
  /// holds PaddedWords(NumWords()) words with zero padding; callers
  /// must preserve both the padding and the tail bits past size().
  const uint64_t* Words() const { return words(); }
  uint64_t* MutableWords() { return words(); }

  /// Stable 64-bit hash of the contents (for visited-state tables).
  uint64_t Hash() const {
    const uint64_t* w = words();
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(size_);
    for (int i = 0; i < nwords_; ++i) {
      h ^= w[i] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }

  /// Debug rendering, e.g. "{0, 3, 7}".
  std::string ToString() const;

 private:
  // Heap blocks are 32-byte aligned and zero-initialized through their
  // padded capacity; writes never touch the padding, so it stays zero
  // for the set's lifetime.
  static uint64_t* AllocWords(int nwords) {
    const size_t cap = static_cast<size_t>(PaddedWords(nwords));
    auto* p = static_cast<uint64_t*>(
        ::operator new(cap * sizeof(uint64_t), std::align_val_t{kWordAlignment}));
    std::memset(p, 0, cap * sizeof(uint64_t));
    return p;
  }
  static void FreeWords(uint64_t* p) noexcept {
    ::operator delete(p, std::align_val_t{kWordAlignment});
  }

  uint64_t* words() { return nwords_ > 1 ? heap_ : &word_; }
  const uint64_t* words() const { return nwords_ > 1 ? heap_ : &word_; }

  void TrimTail() {
    int tail = size_ & 63;
    if (tail != 0) words()[nwords_ - 1] &= (uint64_t{1} << tail) - 1;
  }

  int size_;
  int nwords_;
  union {
    uint64_t word_;    // inline storage when nwords_ <= 1
    uint64_t* heap_;   // owned array when nwords_ > 1
  };
};

}  // namespace hypertree

template <>
struct std::hash<hypertree::Bitset> {
  size_t operator()(const hypertree::Bitset& b) const {
    return static_cast<size_t>(b.Hash());
  }
};

#endif  // HYPERTREE_UTIL_BITSET_H_
