#include "csp/morsel_engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <utility>

#include "csp/key_tables.h"
#include "csp/relation_internal.h"
#include "csp/tree_schedule.h"
#include "kernels/kernels.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

// Hot-path counters, resolved once (shared names with relation.cc: the
// registry hands back the same counter object per name).
metrics::Counter& RowsJoined() {
  static metrics::Counter& c = metrics::GetCounter("relation.rows_joined");
  return c;
}
metrics::Counter& RowsSemijoinDropped() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.rows_semijoin_dropped");
  return c;
}
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

// Dense-table span caps: above these the direct-indexed arrays stop
// paying for their footprint (join keeps two int32 arrays per key slot,
// semijoin one bit). Fixed constants so the dense/hash decision — and
// every downstream counter — is deterministic.
constexpr uint64_t kJoinDenseSpanMax = (uint64_t{1} << 20) - 1;
constexpr uint64_t kSemiDenseSpanMax = (uint64_t{1} << 22) - 1;
// Project goes dense when the whole packed-key universe is small
// (k * bits <= kProjectDenseKeyBits): the seen-bitmap is then at most
// 2^22 bits = 512 KiB and needs no key-range pre-pass.
constexpr int kProjectDenseKeyBits = 22;
constexpr int kMaxSpillPartitions = 256;

// Positions of the shared variables in each schema.
void SharedPositions(const std::vector<int>& a, const std::vector<int>& b,
                     std::vector<int>* pa, std::vector<int>* pb) {
  pa->clear();
  pb->clear();
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (a[i] == b[j]) {
        pa->push_back(static_cast<int>(i));
        pb->push_back(static_cast<int>(j));
      }
    }
  }
}

int PosOf(const std::vector<int>& schema, int var) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == var) return static_cast<int>(i);
  }
  return -1;
}

// Uniform chunk iteration over a resident Relation (kMorselRows views
// into the flat buffer, zero copy) or a ChunkedRelation (resident or
// spilled).
struct ChunkSource {
  const Relation* rel = nullptr;
  const ChunkedRelation* ck = nullptr;

  explicit ChunkSource(const Relation& r) : rel(&r) {}
  explicit ChunkSource(const ChunkedRelation& c) {
    if (c.spilled()) {
      ck = &c;
    } else {
      rel = &c.rel();
    }
  }

  const std::vector<int>& schema() const {
    return rel != nullptr ? rel->schema() : ck->schema();
  }
  int arity() const { return static_cast<int>(schema().size()); }
  long rows() const {
    return rel != nullptr ? static_cast<long>(rel->Size()) : ck->TotalRows();
  }
  int nchunks() const {
    return rel != nullptr ? MorselCount(rel->Size()) : ck->NumChunks();
  }
  int chunk_rows(int i) const {
    return rel != nullptr ? MorselAt(i, rel->Size()).size() : ck->ChunkRows(i);
  }
  const int* load(int i, std::vector<int>* scratch) const {
    return rel != nullptr ? MorselData(*rel, i) : ck->LoadChunk(i, scratch);
  }
};

// Value range of the whole source, from a {0, 0} start: at most an
// over-estimate of the bits a packed value needs. A spilled source folds
// the ranges its chunks recorded when they were written, so planning
// reads none of them back.
ValueRange ScanSource(const ChunkSource& a) {
  if (a.rel != nullptr) {
    return ScanValues(a.rel->data().data(), a.rel->data().size());
  }
  ValueRange v;
  for (int i = 0; i < a.nchunks(); ++i) {
    const ValueRange c = a.ck->ChunkValues(i);
    v.mn = std::min(v.mn, c.mn);
    v.mx = std::max(v.mx, c.mx);
  }
  return v;
}

// Bits per packed key element for k >= 1 key columns, or 0 when the
// values do not pack (negative values, > 64 bits total).
int PlanBits(size_t k, ValueRange a, ValueRange b) {
  if (a.mn < 0 || b.mn < 0) return 0;
  const uint64_t mx = static_cast<uint64_t>(std::max(a.mx, b.mx));
  int bits = 1;
  while ((mx >> bits) != 0) ++bits;
  return static_cast<int>(k) * bits <= 64 ? bits : 0;
}

// ---------------------------------------------------------------------------
// Key codes. Every operator turns its k key columns into one uint64_t
// code per row, and PlanKeyCodes alone picks how:
//   packed    non-negative values with k * bits <= 64: the values side
//             by side, `bits` bits each, first column on top (the
//             kernels::Ops PackKeys kernel).
//   k = 0     no key column (a cross product, a projection onto no
//             variable): packing zero columns codes every row 0.
//   numbered  anything else (negative or wide values): a KeyNumbering
//             numbers the build side's distinct key tuples in
//             first-occurrence order, and a probe row looks its tuple up.
// Everything downstream — dense and hash tables, zone maps, grace
// partitions, spills — runs on the codes alone.
// ---------------------------------------------------------------------------

// One operator's key encoding, and the codes of its build side.
struct KeyCodes {
  int k = 0;
  int bits = 0;  // packed: bits per value (0 when k = 0)
  bool numbered = false;
  KeyNumbering numbering;       // numbered: the build side's key tuples
  std::vector<uint64_t> build;  // one code per build row
  uint64_t bmin = ~uint64_t{0};  // range of the build codes
  uint64_t bmax = 0;

  // Codes of the n rows at `rows` (`stride` values apart, key columns
  // `pos`) into codes[0, n), their min / max into *mn / *mx (an empty
  // block yields ~0 / 0). Returns the numbering's probe collisions.
  long Encode(const int* rows, size_t stride, const int* pos, int n,
              uint64_t* codes, uint64_t* mn, uint64_t* mx) const {
    if (!numbered) {
      kernels::Active().PackKeys(codes, rows, stride, pos, k, bits, n, mn,
                                 mx);
      return 0;
    }
    long collisions = 0;
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    for (int r = 0; r < n; ++r) {
      const uint64_t c =
          numbering.Find(rows + static_cast<size_t>(r) * stride, pos,
                         &collisions);
      codes[r] = c;
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    *mn = lo;
    *mx = hi;
    return collisions;
  }
};

// Chooses the key encoding of an operator with k key columns from the
// values of probe side `a` and build side `b` (nullptr for a projection,
// which has no build side), and codes the build rows at key columns
// `pb`: packed ones morsel-parallel over `pool` (each morsel writes a
// disjoint code range), numbered ones in row order, which fixes each
// tuple's number.
KeyCodes PlanKeyCodes(const ChunkSource& a, size_t k, const Relation* b,
                      const std::vector<int>& pb, ThreadPool* pool) {
  KeyCodes kc;
  kc.k = static_cast<int>(k);
  if (k > 0) {
    kc.bits = PlanBits(k, ScanSource(a),
                       b != nullptr
                           ? ScanValues(b->data().data(), b->data().size())
                           : ValueRange{});
    kc.numbered = kc.bits == 0;
  }
  if (b == nullptr) return kc;
  const int rows = b->Size();
  kc.build.resize(static_cast<size_t>(rows));
  uint64_t* codes = kc.build.data();
  if (kc.numbered) {
    kc.numbering = KeyNumbering(kc.k, rows);
    long collisions = 0;
    for (int r = 0; r < rows; ++r) {
      codes[r] = kc.numbering.Insert(b->Row(r), pb.data(), &collisions);
    }
    if (collisions > 0) ProbeCollisions().Add(collisions);
    BytesAllocated().Add(static_cast<long>(kc.numbering.bytes()));
  } else {
    const size_t arity = static_cast<size_t>(b->Arity());
    ForEachMorsel(rows, pool, [&](int m, int lo, int hi) {
      uint64_t mn = 0;
      uint64_t mx = 0;
      kc.Encode(MorselData(*b, m), arity, pb.data(), hi - lo, codes + lo,
                &mn, &mx);
    });
  }
  for (int r = 0; r < rows; ++r) {
    kc.bmin = std::min(kc.bmin, codes[r]);
    kc.bmax = std::max(kc.bmax, codes[r]);
  }
  return kc;
}

// Codes the n rows at `data` into (*codes)[0, n) and applies the zone
// map: false, counting a skipped morsel, when their code range misses
// the build codes' [bmin, bmax]; true, counting a processed one,
// otherwise. Adds the numbering's probe collisions to *collisions.
bool EncodeMorsel(const KeyCodes& kc, const int* data, size_t stride,
                  const int* pos, int n, std::vector<uint64_t>* codes,
                  long* collisions) {
  codes->resize(static_cast<size_t>(n));
  uint64_t mn = 0;
  uint64_t mx = 0;
  *collisions += kc.Encode(data, stride, pos, n, codes->data(), &mn, &mx);
  if (mn > kc.bmax || mx < kc.bmin) {
    MorselsSkipped().Increment();
    return false;
  }
  MorselsProcessed().Increment();
  return true;
}

// Per-morsel probe scratch (local to one ParallelFor iteration).
struct ChunkBufs {
  std::vector<uint64_t> keys;
  std::vector<int32_t> vals;
};

// ---------------------------------------------------------------------------
// Key groups: one group per distinct build code, found dense (direct
// indexing over the code span) or hash (a CodeTable over the distinct
// codes). A join hangs ascending per-group row chains off them; weighted
// counting, per-group weight sums.
// ---------------------------------------------------------------------------

// A code's group is code - bmin (dense: every code in the span has one)
// or its CodeTable ordinal (hash).
struct KeyGroups {
  uint64_t bmin = ~uint64_t{0};
  uint64_t bmax = 0;
  bool dense = false;
  CodeTable table;  // hash
};

// Number of dense groups of kc's build codes, bmax - bmin + 1, or 0 when
// that span exceeds kJoinDenseSpanMax and the codes go hash.
size_t DenseGroupCount(const KeyCodes& kc) {
  const uint64_t span = kc.bmax - kc.bmin;
  return span <= kJoinDenseSpanMax ? static_cast<size_t>(span) + 1 : 0;
}

// Groups kc's build codes and calls add(r, g) for every build row r, last
// row first, with its group g. Dense groups (DenseGroupCount of them)
// exist up front; hash groups are numbered 0, 1, ... as add first sees
// them. Visiting rows in reverse lets a join prepend each row to its
// group's chain, so chains list rows in ascending order.
template <typename Add>
KeyGroups GroupBuildCodes(const KeyCodes& kc, const Add& add) {
  KeyGroups g;
  g.bmin = kc.bmin;
  g.bmax = kc.bmax;
  g.dense = DenseGroupCount(kc) > 0;
  const std::vector<uint64_t>& keys = kc.build;
  const int rows = static_cast<int>(keys.size());
  if (g.dense) {
    for (int r = rows - 1; r >= 0; --r) {
      add(r, static_cast<int32_t>(keys[r] - g.bmin));
    }
    return g;
  }
  g.table = CodeTable(static_cast<size_t>(rows));
  long uncharged = 0;  // building charges no probe collisions
  for (int r = rows - 1; r >= 0; --r) {
    add(r, g.table.Insert(keys[r], &uncharged));
  }
  return g;
}

// Group of each code in codes[0, n) into groups[0, n), -1 for a code no
// build row has. Returns the hash probe's collisions.
long ProbeGroups(const KeyGroups& g, const uint64_t* codes, int n,
                 int32_t* groups) {
  if (!g.dense) return g.table.Probe(codes, n, groups);
  for (int r = 0; r < n; ++r) {
    const uint64_t key = codes[r];
    groups[r] = key < g.bmin || key > g.bmax
                    ? -1
                    : static_cast<int32_t>(key - g.bmin);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Join: ascending build-row chains per key group; output follows probe
// row order, build ties ascending.
// ---------------------------------------------------------------------------

struct JoinTable {
  KeyGroups groups;
  std::vector<int32_t> next;  // ascending per-group chains
  std::vector<int32_t> head;  // first build row per group, -1 none
  std::vector<int32_t> cnt;   // build rows per group
};

JoinTable BuildJoinTable(const KeyCodes& kc) {
  JoinTable t;
  t.next.assign(kc.build.size(), -1);
  t.head.assign(DenseGroupCount(kc), -1);
  t.cnt.assign(t.head.size(), 0);
  t.groups = GroupBuildCodes(kc, [&t](int r, int32_t g) {
    if (static_cast<size_t>(g) == t.head.size()) {  // a new hash group
      t.head.push_back(-1);
      t.cnt.push_back(0);
    }
    t.next[r] = t.head[g];
    t.head[g] = r;
    ++t.cnt[g];
  });
  BytesAllocated().Add(static_cast<long>(
      (t.next.capacity() + t.head.capacity() + t.cnt.capacity()) *
          sizeof(int32_t) +
      t.groups.table.bytes()));
  return t;
}

// Exact-size count for one probe chunk. Zone map: a morsel whose code
// range misses [bmin, bmax] entirely is skipped without probing.
// Count-pass collisions are not charged to relation.probe_collisions:
// the emit pass charges each probe once.
long CountJoinChunk(const int* data, int rows, int arity, const int* pa,
                    const KeyCodes& kc, const JoinTable& t,
                    ChunkBufs* bufs) {
  if (rows == 0) return 0;
  long uncharged = 0;
  if (!EncodeMorsel(kc, data, static_cast<size_t>(arity), pa, rows,
                    &bufs->keys, &uncharged)) {
    return 0;
  }
  bufs->vals.resize(static_cast<size_t>(rows));
  ProbeGroups(t.groups, bufs->keys.data(), rows, bufs->vals.data());
  long total = 0;
  for (int r = 0; r < rows; ++r) {
    const int32_t g = bufs->vals[r];
    if (g >= 0) total += t.cnt[g];
  }
  return total;
}

// Emits one probe chunk's join rows at `out` (row-major, out_arity
// columns). Returns the probe-collision count; *out_emitted gets the
// emitted row count (must equal the chunk's count pre-pass).
long EmitJoinChunk(const int* data, int rows, int arity, const int* pa,
                   const KeyCodes& kc, const JoinTable& t, const Relation& b,
                   const std::vector<int>& extra, int* out,
                   long* out_emitted, ChunkBufs* bufs) {
  bufs->keys.resize(static_cast<size_t>(rows));
  bufs->vals.resize(static_cast<size_t>(rows));
  uint64_t mn = 0;
  uint64_t mx = 0;
  long collisions = kc.Encode(data, static_cast<size_t>(arity), pa, rows,
                              bufs->keys.data(), &mn, &mx);
  collisions +=
      ProbeGroups(t.groups, bufs->keys.data(), rows, bufs->vals.data());
  const size_t nextra = extra.size();
  const size_t out_arity = static_cast<size_t>(arity) + nextra;
  long emitted = 0;
  for (int r = 0; r < rows; ++r) {
    const int32_t g = bufs->vals[r];
    if (g < 0) continue;
    const int* row = data + static_cast<size_t>(r) * arity;
    for (int32_t u = t.head[g]; u != -1; u = t.next[u]) {
      std::copy(row, row + arity, out);  // arity 0: row may be null
      const int* urow = b.Row(u);
      for (size_t j = 0; j < nextra; ++j) out[arity + j] = urow[extra[j]];
      out += out_arity;
      ++emitted;
    }
  }
  *out_emitted = emitted;
  return collisions;
}

ChunkedRelation JoinImpl(const ChunkSource& a, const Relation& b,
                         ThreadPool* pool, bool allow_spill) {
  const std::vector<int>& sa = a.schema();
  std::vector<int> pa;
  std::vector<int> pb;
  SharedPositions(sa, b.schema(), &pa, &pb);
  std::vector<int> out_schema = sa;
  std::vector<int> extra;
  for (size_t j = 0; j < b.schema().size(); ++j) {
    if (PosOf(sa, b.schema()[j]) == -1) {
      out_schema.push_back(b.schema()[j]);
      extra.push_back(static_cast<int>(j));
    }
  }
  if (a.rows() == 0 || b.Empty()) {
    return ChunkedRelation(Relation(std::move(out_schema)));
  }
  const KeyCodes kc = PlanKeyCodes(a, pa.size(), &b, pb, pool);
  const JoinTable t = BuildJoinTable(kc);
  const int nchunks = a.nchunks();
  const int arity = a.arity();
  std::vector<long> counts(static_cast<size_t>(nchunks), 0);
  ParallelFor(nchunks, pool, [&](int i) {
    ChunkBufs bufs;
    std::vector<int> scratch;
    counts[i] = CountJoinChunk(a.load(i, &scratch), a.chunk_rows(i), arity,
                               pa.data(), kc, t, &bufs);
  });
  std::vector<long> offs(static_cast<size_t>(nchunks) + 1, 0);
  for (int i = 0; i < nchunks; ++i) offs[i + 1] = offs[i] + counts[i];
  const long total = offs[nchunks];
  const size_t out_arity = out_schema.size();
  const long long out_bytes =
      static_cast<long long>(total) * static_cast<long long>(out_arity) *
      static_cast<long long>(sizeof(int));
  const long long budget = MemoryBudget();
  std::atomic<long> collisions{0};

  if (allow_spill && budget > 0 && out_bytes > budget) {
    // Larger-than-core output: every chunk spills (the decision is made
    // once, from the exact pre-pass total, so chunk contents never
    // depend on residency or schedule).
    auto file = std::make_shared<SpillFile>();
    file->Open();
    ChunkedRelation out(out_schema, std::move(file));
    out.ResizeChunks(nchunks);
    ChunkedRelation* outp = &out;
    ParallelFor(nchunks, pool, [&](int i) {
      if (counts[i] == 0) return;
      HT_CHECK_LE(counts[i], static_cast<long>(INT32_MAX))
          << "spilled join chunk exceeds the per-chunk row-count limit";
      ChunkBufs bufs;
      std::vector<int> scratch;
      std::vector<int> buf(static_cast<size_t>(counts[i]) * out_arity);
      long emitted = 0;
      const long c =
          EmitJoinChunk(a.load(i, &scratch), a.chunk_rows(i), arity,
                        pa.data(), kc, t, b, extra, buf.data(), &emitted,
                        &bufs);
      collisions.fetch_add(c, std::memory_order_relaxed);
      HT_CHECK_EQ(emitted, counts[i])
          << "join emitted a different row count than its exact-size "
             "pre-pass";
      // (File-range allocation order is schedule-dependent; chunk
      // contents and the chunk-index mapping are not.)
      outp->WriteChunk(i, buf.data(), static_cast<int>(counts[i]));
    });
    out.FinishChunks();
    SpillPartitions().Add(nchunks);
    SpillBytes().Add(static_cast<long>(out_bytes));
    RowsJoined().Add(total);
    const long coll = collisions.load(std::memory_order_relaxed);
    if (coll > 0) ProbeCollisions().Add(coll);
    return out;
  }

  Relation out(out_schema);
  std::vector<int>& data = RelationInternal::Data(out);
  HT_CHECK_LE(total, static_cast<long>(INT32_MAX))
      << "resident join output exceeds the row-count limit";
  data.resize(static_cast<size_t>(total) * out_arity);
  RelationInternal::Rows(out) = static_cast<int>(total);
  ParallelFor(nchunks, pool, [&](int i) {
    if (counts[i] == 0) return;
    ChunkBufs bufs;
    std::vector<int> scratch;
    long emitted = 0;
    const long c = EmitJoinChunk(
        a.load(i, &scratch), a.chunk_rows(i), arity, pa.data(), kc, t, b,
        extra, data.data() + static_cast<size_t>(offs[i]) * out_arity,
        &emitted, &bufs);
    collisions.fetch_add(c, std::memory_order_relaxed);
    HT_CHECK_EQ(emitted, counts[i])
        << "join emitted a different row count than its exact-size pre-pass";
  });
  RowsJoined().Add(total);
  BytesAllocated().Add(static_cast<long>(data.capacity() * sizeof(int)));
  const long coll = collisions.load(std::memory_order_relaxed);
  if (coll > 0) ProbeCollisions().Add(coll);
  RelationInternal::CheckRep(out);
  return ChunkedRelation(std::move(out));
}

// ---------------------------------------------------------------------------
// Semijoin.
// ---------------------------------------------------------------------------

// Build side of a semijoin over the build codes' range [bmin, bmax]:
// either a bitmap over that range (dense) or a CodeTable of the distinct
// codes (hash).
struct SemiTable {
  bool dense = false;
  std::vector<uint64_t> bitmap;  // dense: bit (code - bmin)
  CodeTable set;                 // hash
};

// A CodeTable of the distinct codes among keys[0, n), inserted in order.
CodeTable KeySet(const uint64_t* keys, size_t n) {
  CodeTable set(n);
  long uncharged = 0;  // building charges no probe collisions
  for (size_t i = 0; i < n; ++i) set.Insert(keys[i], &uncharged);
  return set;
}

// The semijoin probe loop, one morsel of `left` per work item: code the
// morsel's keys, skip it when its zone map misses [kc.bmin, kc.bmax],
// and set keep[r] for every row whose code is in t. Returns the probe
// collisions.
long ProbeSemijoin(const Relation& left, const std::vector<int>& pa,
                   const KeyCodes& kc, const SemiTable& t, ThreadPool* pool,
                   uint8_t* keep) {
  const size_t arity = static_cast<size_t>(left.Arity());
  std::atomic<long> collisions{0};
  ForEachMorsel(left.Size(), pool, [&](int m, int lo, int hi) {
    const int n = hi - lo;
    ChunkBufs bufs;
    long c = 0;
    if (EncodeMorsel(kc, MorselData(left, m), arity, pa.data(), n,
                     &bufs.keys, &c)) {
      if (t.dense) {
        for (int r = 0; r < n; ++r) {
          const uint64_t key = bufs.keys[r];
          if (key < kc.bmin || key > kc.bmax) continue;
          const uint64_t idx = key - kc.bmin;
          if ((t.bitmap[idx >> 6] >> (idx & 63)) & 1) keep[lo + r] = 1;
        }
      } else {
        bufs.vals.resize(static_cast<size_t>(n));
        c += t.set.Probe(bufs.keys.data(), n, bufs.vals.data());
        for (int r = 0; r < n; ++r) {
          if (bufs.vals[r] >= 0) keep[lo + r] = 1;
        }
      }
    }
    collisions.fetch_add(c, std::memory_order_relaxed);
  });
  return collisions.load(std::memory_order_relaxed);
}

// One grace partition of a partitioned semijoin: its staging buffer and
// the runs it flushed to the spill file. A build run is `n` codes; a
// probe run is `n` codes followed by their `n` left row indices.
struct GracePartition {
  struct Run {
    long long off = 0;
    int n = 0;
  };
  std::vector<uint64_t> keys;  // staging
  std::vector<int32_t> rows;   // staging (probe side only)
  std::vector<Run> build;
  std::vector<Run> probe;
};

// Reads `runs` back in order: their codes into *keys and, for probe runs
// (rows != nullptr), their left row indices into *rows.
void ReadRuns(const SpillFile& file,
              const std::vector<GracePartition::Run>& runs,
              std::vector<uint64_t>* keys, std::vector<int32_t>* rows) {
  keys->clear();
  if (rows != nullptr) rows->clear();
  for (const GracePartition::Run& run : runs) {
    const size_t at = keys->size();
    const size_t n = static_cast<size_t>(run.n);
    keys->resize(at + n);
    file.ReadAt(run.off, keys->data() + at, n * sizeof(uint64_t));
    if (rows == nullptr) continue;
    rows->resize(at + n);
    file.ReadAt(run.off + static_cast<long long>(n * sizeof(uint64_t)),
                rows->data() + at, n * sizeof(int32_t));
  }
}

// Grace (radix) partitioned semijoin: both sides are split to a spill
// file by the top SplitMix64 bits of the code — first the build codes
// in build row order (which fixes each partition table's slot layout),
// then, from each left morsel coded once under the zone map, every
// in-range row as a (code, row index) pair. Each partition then runs as
// one work item: a key set over its build codes and one probe over its
// pairs. A left row lands in exactly one partition, so concurrent
// partitions set disjoint keep[] entries. Returns the probe collisions.
long PartitionedSemijoin(const Relation& left, const std::vector<int>& pa,
                         const KeyCodes& kc, long long budget,
                         ThreadPool* pool, uint8_t* keep) {
  const std::vector<uint64_t>& rkeys = kc.build;
  const long long table_bytes =
      static_cast<long long>(CodeTable::BytesFor(rkeys.size()));
  int parts = 2;
  while (parts < kMaxSpillPartitions &&
         table_bytes / parts > std::max<long long>(budget / 2, 1)) {
    parts <<= 1;
  }
  int log2p = 0;
  while ((1 << log2p) < parts) ++log2p;
  const int shift = 64 - log2p;

  SpillFile file;
  file.Open();
  constexpr size_t kStageKeys = 1024;
  std::vector<GracePartition> part(static_cast<size_t>(parts));
  auto flush = [&](GracePartition& p,
                   std::vector<GracePartition::Run>* runs) {
    if (p.keys.empty()) return;
    const size_t key_bytes = p.keys.size() * sizeof(uint64_t);
    const size_t row_bytes = p.rows.size() * sizeof(int32_t);
    const long long off =
        file.Allocate(static_cast<long long>(key_bytes + row_bytes));
    file.WriteAt(off, p.keys.data(), key_bytes);
    if (row_bytes > 0) {
      file.WriteAt(off + static_cast<long long>(key_bytes), p.rows.data(),
                   row_bytes);
    }
    runs->push_back({off, static_cast<int>(p.keys.size())});
    p.keys.clear();
    p.rows.clear();
  };
  auto partition_of = [&](uint64_t key) -> GracePartition& {
    return part[static_cast<size_t>(kernels::SplitMix64(key) >> shift)];
  };
  for (const uint64_t key : rkeys) {
    GracePartition& p = partition_of(key);
    p.keys.push_back(key);
    if (p.keys.size() >= kStageKeys) flush(p, &p.build);
  }
  for (GracePartition& p : part) flush(p, &p.build);

  long staged = 0;
  long collisions = 0;
  const size_t arity = static_cast<size_t>(left.Arity());
  std::vector<uint64_t> keys;
  ForEachMorsel(left.Size(), /*pool=*/nullptr, [&](int m, int lo, int hi) {
    if (!EncodeMorsel(kc, MorselData(left, m), arity, pa.data(), hi - lo,
                      &keys, &collisions)) {
      return;
    }
    for (int r = 0; r < hi - lo; ++r) {
      const uint64_t key = keys[r];
      if (key < kc.bmin || key > kc.bmax) continue;
      GracePartition& p = partition_of(key);
      p.keys.push_back(key);
      p.rows.push_back(lo + r);
      ++staged;
      if (p.keys.size() >= kStageKeys) flush(p, &p.probe);
    }
  });
  for (GracePartition& p : part) flush(p, &p.probe);
  SpillPartitions().Add(parts);
  SpillBytes().Add(static_cast<long>(
      rkeys.size() * sizeof(uint64_t) +
      static_cast<size_t>(staged) * (sizeof(uint64_t) + sizeof(int32_t))));

  std::atomic<long> probe_collisions{0};
  ParallelFor(parts, pool, [&](int i) {
    const GracePartition& p = part[static_cast<size_t>(i)];
    if (p.build.empty() || p.probe.empty()) return;
    std::vector<uint64_t> pkeys;
    std::vector<int32_t> prows;
    ReadRuns(file, p.build, &pkeys, nullptr);
    const CodeTable set = KeySet(pkeys.data(), pkeys.size());
    ReadRuns(file, p.probe, &pkeys, &prows);
    std::vector<int32_t> vals(pkeys.size());
    const long c = set.Probe(pkeys.data(), static_cast<int>(pkeys.size()),
                             vals.data());
    probe_collisions.fetch_add(c, std::memory_order_relaxed);
    for (size_t j = 0; j < vals.size(); ++j) {
      if (vals[j] >= 0) keep[prows[j]] = 1;
    }
  });
  return collisions + probe_collisions.load(std::memory_order_relaxed);
}

// left ⋉ right over non-empty sides.
void SemijoinImpl(Relation* left, const Relation& right,
                  const std::vector<int>& pa, const std::vector<int>& pb,
                  ThreadPool* pool) {
  const int rows_l = left->Size();
  const int arity = left->Arity();
  const KeyCodes kc =
      PlanKeyCodes(ChunkSource(*left), pa.size(), &right, pb, pool);
  const uint64_t span = kc.bmax - kc.bmin;
  const long long budget = MemoryBudget();
  const long long dense_bytes =
      static_cast<long long>(span / 64 + 1) * sizeof(uint64_t);
  SemiTable build;
  build.dense =
      span <= kSemiDenseSpanMax && (budget == 0 || dense_bytes <= budget);
  std::vector<uint8_t> keep(static_cast<size_t>(rows_l), 0);
  long collisions = 0;

  if (build.dense) {
    build.bitmap.assign(static_cast<size_t>(span / 64 + 1), 0);
    for (const uint64_t key : kc.build) {
      const uint64_t idx = key - kc.bmin;
      build.bitmap[idx >> 6] |= uint64_t{1} << (idx & 63);
    }
    BytesAllocated().Add(
        static_cast<long>(build.bitmap.capacity() * sizeof(uint64_t)));
    collisions = ProbeSemijoin(*left, pa, kc, build, pool, keep.data());
  } else {
    const long long hash_bytes =
        static_cast<long long>(CodeTable::BytesFor(kc.build.size()));
    if (budget > 0 && hash_bytes > budget) {
      collisions =
          PartitionedSemijoin(*left, pa, kc, budget, pool, keep.data());
    } else {
      build.set = KeySet(kc.build.data(), kc.build.size());
      BytesAllocated().Add(static_cast<long>(build.set.bytes()));
      collisions = ProbeSemijoin(*left, pa, kc, build, pool, keep.data());
    }
  }

  // In-order swap compaction (row order preserved).
  std::vector<int>& data = RelationInternal::Data(*left);
  int write = 0;
  for (int t = 0; t < rows_l; ++t) {
    if (keep[t] == 0) continue;
    if (write != t) {
      std::memmove(data.data() + static_cast<size_t>(write) * arity,
                   data.data() + static_cast<size_t>(t) * arity,
                   static_cast<size_t>(arity) * sizeof(int));
    }
    ++write;
  }
  RowsSemijoinDropped().Add(rows_l - write);
  HT_CHECK_LE(write, rows_l)
      << "semijoin compaction produced more survivors than input rows";
  RelationInternal::Rows(*left) = write;
  data.resize(static_cast<size_t>(write) * arity);
  if (collisions > 0) ProbeCollisions().Add(collisions);
  RelationInternal::CheckRep(*left);
}

// ---------------------------------------------------------------------------
// Project.
// ---------------------------------------------------------------------------

// A numbered projection: the numbering built over the input, streamed
// chunk by chunk, holds the distinct tuples in first-occurrence order,
// which is the output.
Relation ProjectNumbered(const ChunkSource& a,
                         const std::vector<int>& positions,
                         const std::vector<int>& vars) {
  KeyNumbering numbering(static_cast<int>(positions.size()),
                         std::min<long>(a.rows(), INT32_MAX / 2));
  const size_t arity = static_cast<size_t>(a.arity());
  long collisions = 0;
  std::vector<int> scratch;
  for (int i = 0; i < a.nchunks(); ++i) {
    const int n = a.chunk_rows(i);
    const int* data = a.load(i, &scratch);
    for (int r = 0; r < n; ++r) {
      numbering.Insert(data + static_cast<size_t>(r) * arity,
                       positions.data(), &collisions);
    }
    MorselsProcessed().Increment();
  }
  if (collisions > 0) ProbeCollisions().Add(collisions);
  BytesAllocated().Add(static_cast<long>(numbering.bytes()));
  Relation out(vars);
  RelationInternal::Rows(out) = numbering.size();
  RelationInternal::Data(out) = numbering.TakeTuples();
  RelationInternal::CheckRep(out);
  return out;
}

Relation ProjectImpl(const ChunkSource& a, const std::vector<int>& vars,
                     ThreadPool* pool) {
  const std::vector<int>& sa = a.schema();
  std::vector<int> positions;
  positions.reserve(vars.size());
  for (int v : vars) {
    const int idx = PosOf(sa, v);
    HT_CHECK_MSG(idx >= 0, "projection variable not in schema");
    positions.push_back(idx);
  }
  const int k = static_cast<int>(positions.size());
  const long rows = a.rows();
  if (rows == 0) return Relation(vars);
  const KeyCodes kc = PlanKeyCodes(a, positions.size(), nullptr, {}, pool);
  if (kc.numbered) return ProjectNumbered(a, positions, vars);

  // Packed (k = 0 included: one code, so one empty output row).
  const int bits = kc.bits;
  Relation out(vars);
  std::vector<int>& out_data = RelationInternal::Data(out);
  int& out_rows = RelationInternal::Rows(out);
  const bool dense = k * bits <= kProjectDenseKeyBits;
  const uint64_t vmask =
      bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;

  // Dedup state: seen-bitmap over the whole packed-key universe (dense)
  // or a CodeTable of the codes seen (hash). Output values are decoded
  // from the packed key by shifts — no gathered compares, no second read
  // of the input row.
  std::vector<uint64_t> bitmap;
  CodeTable seen;
  long reserve_rows = rows;
  if (dense) {
    const size_t universe = size_t{1} << (k * bits);
    bitmap.assign((universe + 63) / 64, 0);
    reserve_rows = std::min<long>(rows, static_cast<long>(universe));
  } else {
    seen = CodeTable(static_cast<size_t>(
        std::min<long>(rows, static_cast<long>(INT32_MAX) / 2)));
  }
  out_data.reserve(static_cast<size_t>(reserve_rows) * k);

  const int nchunks = a.nchunks();
  const int arity = a.arity();
  const long long budget = MemoryBudget();
  // Pre-packing every chunk in parallel keeps the pool busy but holds
  // 8 bytes per input row; stream chunk-by-chunk when the budget (or a
  // missing pool) says no. Both modes insert in global row order, so
  // outputs and counters are identical.
  const long long keys_bytes =
      static_cast<long long>(rows) * static_cast<long long>(sizeof(uint64_t));
  const bool prepack = pool != nullptr && pool->NumThreads() > 1 &&
                       (budget == 0 || keys_bytes <= budget / 2);

  std::vector<std::vector<uint64_t>> chunk_keys;
  if (prepack) {
    chunk_keys.resize(static_cast<size_t>(nchunks));
    ParallelFor(nchunks, pool, [&](int i) {
      std::vector<int> scratch;
      const int n = a.chunk_rows(i);
      chunk_keys[i].resize(static_cast<size_t>(n));
      uint64_t mn = 0;
      uint64_t mx = 0;
      kc.Encode(a.load(i, &scratch), static_cast<size_t>(arity),
                positions.data(), n, chunk_keys[i].data(), &mn, &mx);
    });
  }

  long collisions = 0;
  std::vector<int> scratch;
  std::vector<uint64_t> keybuf;
  std::vector<int> decoded(static_cast<size_t>(k));
  for (int i = 0; i < nchunks; ++i) {
    const int n = a.chunk_rows(i);
    const uint64_t* keys;
    if (prepack) {
      keys = chunk_keys[i].data();
    } else {
      keybuf.resize(static_cast<size_t>(n));
      uint64_t mn = 0;
      uint64_t mx = 0;
      kc.Encode(a.load(i, &scratch), static_cast<size_t>(arity),
                positions.data(), n, keybuf.data(), &mn, &mx);
      keys = keybuf.data();
    }
    MorselsProcessed().Increment();
    for (int r = 0; r < n; ++r) {
      const uint64_t key = keys[r];
      bool fresh;
      if (dense) {
        uint64_t& word = bitmap[key >> 6];
        const uint64_t bit = uint64_t{1} << (key & 63);
        fresh = (word & bit) == 0;
        word |= bit;
      } else {
        // A new code takes the next ordinal: the output row count so far.
        fresh = seen.Insert(key, &collisions) == out_rows;
      }
      if (!fresh) continue;
      for (int c = 0; c < k; ++c) {
        decoded[c] =
            static_cast<int>((key >> ((k - 1 - c) * bits)) & vmask);
      }
      out_data.insert(out_data.end(), decoded.begin(), decoded.end());
      ++out_rows;
    }
    if (prepack) {
      chunk_keys[i].clear();
      chunk_keys[i].shrink_to_fit();
    }
  }
  if (collisions > 0) ProbeCollisions().Add(collisions);
  BytesAllocated().Add(static_cast<long>(
      out_data.capacity() * sizeof(int) +
      bitmap.capacity() * sizeof(uint64_t) + seen.bytes()));
  HT_CHECK_LE(static_cast<long>(out_rows), rows)
      << "projection emitted more distinct rows than its input has";
  RelationInternal::CheckRep(out);
  return out;
}

}  // namespace

Relation EngineJoin(const Relation& a, const Relation& b, ThreadPool* pool) {
  return JoinImpl(ChunkSource(a), b, pool, /*allow_spill=*/false).TakeRel();
}

ChunkedRelation EngineJoinChunked(const ChunkedRelation& a, const Relation& b,
                                  ThreadPool* pool) {
  return JoinImpl(ChunkSource(a), b, pool, /*allow_spill=*/true);
}

void EngineSemijoinInPlace(Relation* left, const Relation& right,
                           ThreadPool* pool) {
  HT_CHECK(left != &right) << "SemijoinInPlace must not alias its argument";
  if (left->Empty()) return;
  if (right.Empty()) {
    RowsSemijoinDropped().Add(left->Size());
    RelationInternal::Data(*left).clear();
    RelationInternal::Rows(*left) = 0;
    return;
  }
  std::vector<int> pa;
  std::vector<int> pb;
  SharedPositions(left->schema(), right.schema(), &pa, &pb);
  SemijoinImpl(left, right, pa, pb, pool);
}

void EngineWeightedSemijoin(const Relation& left,
                            std::vector<long long>* left_weights,
                            const Relation& right,
                            const std::vector<long long>& right_weights,
                            ThreadPool* pool) {
  HT_CHECK_EQ(left_weights->size(), static_cast<size_t>(left.Size()));
  HT_CHECK_EQ(right_weights.size(), static_cast<size_t>(right.Size()));
  long long* w = left_weights->data();
  if (right.Empty()) {
    std::fill(w, w + left.Size(), 0);
    return;
  }
  if (left.Empty()) return;
  std::vector<int> pa;
  std::vector<int> pb;
  SharedPositions(left.schema(), right.schema(), &pa, &pb);
  const KeyCodes kc =
      PlanKeyCodes(ChunkSource(left), pa.size(), &right, pb, pool);
  // Summed weight of each key group's build rows.
  std::vector<long long> sums(DenseGroupCount(kc), 0);
  const KeyGroups groups =
      GroupBuildCodes(kc, [&sums, &right_weights](int r, int32_t g) {
        if (static_cast<size_t>(g) == sums.size()) sums.push_back(0);
        sums[g] += right_weights[r];
      });
  // Each left row's weight is written by exactly one morsel, so the
  // products are schedule-independent.
  const size_t arity = static_cast<size_t>(left.Arity());
  std::atomic<long> collisions{0};
  ForEachMorsel(left.Size(), pool, [&](int m, int lo, int hi) {
    const int n = hi - lo;
    ChunkBufs bufs;
    long c = 0;
    if (!EncodeMorsel(kc, MorselData(left, m), arity, pa.data(), n,
                      &bufs.keys, &c)) {
      std::fill(w + lo, w + hi, 0);
    } else {
      bufs.vals.resize(static_cast<size_t>(n));
      c += ProbeGroups(groups, bufs.keys.data(), n, bufs.vals.data());
      for (int r = 0; r < n; ++r) {
        const int32_t g = bufs.vals[r];
        w[lo + r] *= g >= 0 ? sums[g] : 0;
      }
    }
    collisions.fetch_add(c, std::memory_order_relaxed);
  });
  const long coll = collisions.load(std::memory_order_relaxed);
  if (coll > 0) ProbeCollisions().Add(coll);
}

Relation EngineProject(const Relation& r, const std::vector<int>& vars,
                       ThreadPool* pool) {
  return ProjectImpl(ChunkSource(r), vars, pool);
}

Relation EngineProjectChunked(const ChunkedRelation& a,
                              const std::vector<int>& vars,
                              ThreadPool* pool) {
  return ProjectImpl(ChunkSource(a), vars, pool);
}

}  // namespace hypertree
