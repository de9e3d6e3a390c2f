#include "csp/relation.h"

#include <cstring>
#include <utility>

#include "csp/morsel_engine.h"
#include "util/check.h"
#include "util/metrics.h"

namespace hypertree {

namespace {

// Hot-path counters, resolved once (see src/util/metrics.h).
metrics::Counter& ProbeCollisions() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.probe_collisions");
  return c;
}
metrics::Counter& BytesAllocated() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.bytes_allocated");
  return c;
}

size_t NextPow2AtLeast(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

// Open-addressing index over whole rows: slots hold row ids (-1 empty),
// probed linearly with splitmix64-mixed row hashes. Immutable once
// published for concurrent readers; mutators keep it fresh in place
// (exclusive access) or drop it.
struct Relation::RowIndex {
  std::vector<int32_t> slots;
  size_t mask = 0;
  size_t size = 0;
};

Relation::~Relation() { DropIndex(); }

Relation::Relation(const Relation& other)
    : schema_(other.schema_), data_(other.data_), rows_(other.rows_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  DropIndex();
  schema_ = other.schema_;
  data_ = other.data_;
  rows_ = other.rows_;
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      data_(std::move(other.data_)),
      rows_(other.rows_),
      index_(other.index_.load(std::memory_order_relaxed)) {
  other.index_.store(nullptr, std::memory_order_relaxed);
  other.rows_ = 0;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  DropIndex();
  schema_ = std::move(other.schema_);
  data_ = std::move(other.data_);
  rows_ = other.rows_;
  index_.store(other.index_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  other.index_.store(nullptr, std::memory_order_relaxed);
  other.rows_ = 0;
  return *this;
}

std::vector<std::vector<int>> Relation::ToTuples() const {
  std::vector<std::vector<int>> out;
  out.reserve(rows_);
  for (int r = 0; r < rows_; ++r) {
    out.emplace_back(Row(r), Row(r) + Arity());
  }
  return out;
}

void Relation::AddTuple(const std::vector<int>& tuple) {
  HT_CHECK_EQ(tuple.size(), schema_.size())
      << "tuple arity does not match the relation schema";
  AddRow(tuple.data());
}

void Relation::AddRowToIndex() {
  RowIndex* idx = index_.load(std::memory_order_relaxed);
  // Mutation is exclusive by contract, so the index can be kept fresh
  // in place instead of being rebuilt on the next Contains().
  MaybeGrowIndex(idx);
  InsertIntoIndex(idx, rows_ - 1, /*check_duplicate=*/false);
}

bool Relation::InsertIfAbsent(const int* row) {
  if (ContainsRow(row)) return false;
  AddRow(row);
  return true;
}

void Relation::Reserve(int num_rows) {
  data_.reserve(static_cast<size_t>(num_rows) * schema_.size());
}

int Relation::IndexOf(int var) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Relation Relation::Join(const Relation& other) const {
  // Single code path for serial and pooled execution: the engine with a
  // null pool runs every morsel on the calling thread.
  return EngineJoin(*this, other, /*pool=*/nullptr);
}

Relation Relation::Semijoin(const Relation& other) const {
  Relation out(*this);
  out.SemijoinInPlace(other);
  return out;
}

void Relation::SemijoinInPlace(const Relation& other) {
  EngineSemijoinInPlace(this, other, /*pool=*/nullptr);
}

Relation Relation::Project(const std::vector<int>& vars) const {
  return EngineProject(*this, vars, /*pool=*/nullptr);
}

bool Relation::Contains(const std::vector<int>& tuple) const {
  HT_CHECK(tuple.size() == schema_.size());
  return ContainsRow(tuple.data());
}

bool Relation::ContainsRow(const int* row) const {
  if (rows_ == 0) return false;
  // Arity 0: the only possible tuple is the empty one, and `row` may be
  // null (vector<int>{}.data()) — never hand it to memcmp/hash.
  if (schema_.empty()) return true;
  // Tiny relations (typical CSP constraint tables) are cheaper to scan in
  // the flat buffer than to hash-probe; skip the index while none exists.
  // Never building an index for them also keeps bytes_allocated
  // deterministic regardless of lookup pattern.
  const RowIndex* idx = index_.load(std::memory_order_acquire);
  if (idx == nullptr && rows_ <= kScanThreshold) {
    const size_t arity = schema_.size();
    const size_t bytes = arity * sizeof(int);
    for (int r = 0; r < rows_; ++r) {
      if (std::memcmp(Row(r), row, bytes) == 0) return true;
    }
    return false;
  }
  if (idx == nullptr) idx = EnsureIndex();
  return ProbeIndex(*idx, row);
}

const Relation::RowIndex* Relation::EnsureIndex() const {
  RowIndex* idx = index_.load(std::memory_order_acquire);
  if (idx != nullptr) return idx;
  auto* built = new RowIndex;
  size_t cap = NextPow2AtLeast(static_cast<size_t>(rows_) * 2);
  built->mask = cap - 1;
  built->slots.assign(cap, -1);
  for (int r = 0; r < rows_; ++r) {
    InsertIntoIndex(built, r, /*check_duplicate=*/false);
  }
  RowIndex* expected = nullptr;
  if (index_.compare_exchange_strong(expected, built,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    // Count allocation only for the published winner so the counter stays
    // deterministic when concurrent readers race on the first build.
    BytesAllocated().Add(
        static_cast<long>(built->slots.capacity() * sizeof(int32_t)));
    return built;
  }
  delete built;
  return expected;
}

void Relation::DropIndex() {
  RowIndex* idx = index_.load(std::memory_order_relaxed);
  if (idx != nullptr) {
    delete idx;
    index_.store(nullptr, std::memory_order_relaxed);
  }
}

bool Relation::ProbeIndex(const RowIndex& idx, const int* row) const {
  const int arity = Arity();
  size_t slot = HashRowValues(row, arity) & idx.mask;
  long collisions = 0;
  bool found = false;
  while (idx.slots[slot] != -1) {
    const int* cand = Row(idx.slots[slot]);
    if (std::memcmp(cand, row, static_cast<size_t>(arity) * sizeof(int)) ==
        0) {
      found = true;
      break;
    }
    ++collisions;
    slot = (slot + 1) & idx.mask;
  }
  if (collisions > 0) ProbeCollisions().Add(collisions);
  return found;
}

bool Relation::InsertIntoIndex(RowIndex* idx, int r,
                               bool check_duplicate) const {
  const int arity = Arity();
  const int* row = Row(r);
  size_t slot = HashRowValues(row, arity) & idx->mask;
  while (idx->slots[slot] != -1) {
    if (check_duplicate &&
        std::memcmp(Row(idx->slots[slot]), row,
                    static_cast<size_t>(arity) * sizeof(int)) == 0) {
      return false;
    }
    slot = (slot + 1) & idx->mask;
  }
  idx->slots[slot] = r;
  ++idx->size;
  return true;
}

void Relation::MaybeGrowIndex(RowIndex* idx) const {
  if ((idx->size + 1) * 10 <= idx->slots.size() * 7) return;
  RowIndex grown;
  size_t cap = NextPow2AtLeast(idx->slots.size() * 2);
  grown.mask = cap - 1;
  grown.slots.assign(cap, -1);
  for (int32_t r : idx->slots) {
    if (r == -1) continue;
    const int* row = Row(r);
    size_t slot = HashRowValues(row, Arity()) & grown.mask;
    while (grown.slots[slot] != -1) slot = (slot + 1) & grown.mask;
    grown.slots[slot] = r;
  }
  grown.size = idx->size;
  BytesAllocated().Add(
      static_cast<long>(grown.slots.capacity() * sizeof(int32_t)));
  *idx = std::move(grown);
}

}  // namespace hypertree
