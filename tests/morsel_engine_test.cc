// Randomized equivalence and determinism tests for the morsel-driven
// join engine (src/csp/morsel_engine.h): every key encoding — packed,
// k = 0 and numbered — and every engine mode — dense, hash, pooled,
// chunked and spilled — must produce the exact output (values AND row
// order) of a naive reference, and the same bytes whatever the thread
// count or memory budget. The spill byte-identity cases here are the ones
// scripts/run_asan_checks.sh and the CI low-memory job lean on
// (docs/SOLVING.md).

#include "csp/morsel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "csp/morsel.h"
#include "csp/relation.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

Relation RandomRelation(const std::vector<int>& schema, int rows, int lo,
                        int hi, Rng* rng) {
  Relation r(schema);
  std::vector<int> row(schema.size());
  for (int t = 0; t < rows; ++t) {
    for (int& v : row) {
      v = lo + static_cast<int>(rng->UniformInt(hi - lo + 1));
    }
    r.AddRow(row.data());
  }
  return r;
}

// Naive reference join: probe-row order, build ties in ascending build
// row order — the documented Relation::Join contract.
Relation NaiveJoin(const Relation& a, const Relation& b) {
  std::vector<std::pair<int, int>> shared;  // (pos in a, pos in b)
  std::vector<int> out_schema = a.schema();
  std::vector<int> extra;
  for (size_t j = 0; j < b.schema().size(); ++j) {
    const int pa = a.IndexOf(b.schema()[j]);
    if (pa >= 0) {
      shared.emplace_back(pa, static_cast<int>(j));
    } else {
      out_schema.push_back(b.schema()[j]);
      extra.push_back(static_cast<int>(j));
    }
  }
  Relation out(out_schema);
  std::vector<int> row(out_schema.size());
  for (int t = 0; t < a.Size(); ++t) {
    const int* ra = a.Row(t);
    for (int u = 0; u < b.Size(); ++u) {
      const int* rb = b.Row(u);
      bool match = true;
      for (const auto& [pa, pb] : shared) {
        if (ra[pa] != rb[pb]) match = false;
      }
      if (!match) continue;
      std::copy(ra, ra + a.Arity(), row.begin());
      for (size_t i = 0; i < extra.size(); ++i) {
        row[a.Arity() + i] = rb[extra[i]];
      }
      out.AddRow(row.data());
    }
  }
  return out;
}

Relation NaiveSemijoin(const Relation& a, const Relation& b) {
  std::vector<std::pair<int, int>> shared;
  for (size_t j = 0; j < b.schema().size(); ++j) {
    const int pa = a.IndexOf(b.schema()[j]);
    if (pa >= 0) shared.emplace_back(pa, static_cast<int>(j));
  }
  Relation out(a.schema());
  if (shared.empty()) {
    // No shared variables: keep everything iff b is non-empty.
    return b.Empty() ? out : a;
  }
  for (int t = 0; t < a.Size(); ++t) {
    const int* ra = a.Row(t);
    bool keep = false;
    for (int u = 0; u < b.Size() && !keep; ++u) {
      const int* rb = b.Row(u);
      keep = true;
      for (const auto& [pa, pb] : shared) {
        if (ra[pa] != rb[pb]) keep = false;
      }
    }
    if (keep) out.AddRow(ra);
  }
  return out;
}

// Naive reference project: first occurrence wins the output order.
Relation NaiveProject(const Relation& a, const std::vector<int>& vars) {
  std::vector<int> pos;
  for (int v : vars) pos.push_back(a.IndexOf(v));
  Relation out(vars);
  std::set<std::vector<int>> seen;
  std::vector<int> row(vars.size());
  for (int t = 0; t < a.Size(); ++t) {
    const int* ra = a.Row(t);
    for (size_t i = 0; i < pos.size(); ++i) row[i] = ra[pos[i]];
    if (seen.insert(row).second) out.AddRow(row.data());
  }
  return out;
}

void ExpectSame(const Relation& want, const Relation& got) {
  ASSERT_EQ(want.schema(), got.schema());
  ASSERT_EQ(want.Size(), got.Size());
  EXPECT_EQ(want.data(), got.data());  // values AND row order
}

// Value ranges that steer the engine through each mode: tiny domains
// (dense tables), wide values (hash tables), negatives (numbered codes —
// keys do not pack).
struct Mode {
  int lo;
  int hi;
  const char* name;
};
const Mode kModes[] = {
    {0, 2, "dense"}, {0, 4000000, "hash"}, {-3, 3, "numbered"}};

class MorselEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { SetMemoryBudget(0); }
};

TEST_F(MorselEngineTest, JoinMatchesNaiveAllModes) {
  Rng rng(1);
  ThreadPool pool(4);
  for (const Mode& m : kModes) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(std::string(m.name) + " trial=" + std::to_string(trial));
      const int ra = 1 + static_cast<int>(rng.UniformInt(3));
      const int rb = 1 + static_cast<int>(rng.UniformInt(3));
      // Schemas share a random prefix of variable ids.
      std::vector<int> sa, sb;
      for (int i = 0; i < ra; ++i) sa.push_back(i);
      const int shared = static_cast<int>(rng.UniformInt(ra + 1));
      for (int i = 0; i < shared; ++i) sb.push_back(i);
      for (int i = 0; i < rb; ++i) sb.push_back(100 + i);
      Relation a = RandomRelation(
          sa, static_cast<int>(rng.UniformInt(9000)), m.lo, m.hi, &rng);
      Relation b = RandomRelation(
          sb, static_cast<int>(rng.UniformInt(300)), m.lo, m.hi, &rng);
      const Relation want = NaiveJoin(a, b);
      ExpectSame(want, EngineJoin(a, b, nullptr));
      ExpectSame(want, EngineJoin(a, b, &pool));
      ExpectSame(want, a.Join(b));
    }
  }
}

TEST_F(MorselEngineTest, SemijoinMatchesNaiveAllModes) {
  Rng rng(2);
  ThreadPool pool(4);
  for (const Mode& m : kModes) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(std::string(m.name) + " trial=" + std::to_string(trial));
      const int ra = 1 + static_cast<int>(rng.UniformInt(3));
      std::vector<int> sa, sb;
      for (int i = 0; i < ra; ++i) sa.push_back(i);
      const int shared = 1 + static_cast<int>(rng.UniformInt(ra));
      for (int i = 0; i < shared; ++i) sb.push_back(i);
      sb.push_back(100);
      Relation a = RandomRelation(
          sa, static_cast<int>(rng.UniformInt(9000)), m.lo, m.hi, &rng);
      Relation b = RandomRelation(
          sb, static_cast<int>(rng.UniformInt(400)), m.lo, m.hi, &rng);
      const Relation want = NaiveSemijoin(a, b);
      Relation serial = a;
      EngineSemijoinInPlace(&serial, b, nullptr);
      ExpectSame(want, serial);
      Relation pooled = a;
      EngineSemijoinInPlace(&pooled, b, &pool);
      ExpectSame(want, pooled);
      Relation member = a;
      member.SemijoinInPlace(b);
      ExpectSame(want, member);
    }
  }
}

TEST_F(MorselEngineTest, SemijoinEdgeCases) {
  // Empty sides are handled inline: an empty right side drops every left
  // row. With no shared variable every key code is 0, so a non-empty
  // right side keeps every row.
  Relation a(std::vector<int>{0, 1});
  a.AddTuple({1, 2});
  a.AddTuple({3, 4});
  Relation empty_b(std::vector<int>{5});
  Relation full_b(std::vector<int>{5});
  full_b.AddTuple({7});
  Relation x = a;
  EngineSemijoinInPlace(&x, empty_b, nullptr);
  EXPECT_TRUE(x.Empty());
  Relation y = a;
  EngineSemijoinInPlace(&y, full_b, nullptr);
  EXPECT_EQ(2, y.Size());
  Relation z(std::vector<int>{0, 1});
  EngineSemijoinInPlace(&z, full_b, nullptr);
  EXPECT_TRUE(z.Empty());
}

TEST_F(MorselEngineTest, ProjectMatchesNaiveAllModes) {
  Rng rng(3);
  ThreadPool pool(4);
  for (const Mode& m : kModes) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(std::string(m.name) + " trial=" + std::to_string(trial));
      const int ra = 1 + static_cast<int>(rng.UniformInt(4));
      std::vector<int> sa;
      for (int i = 0; i < ra; ++i) sa.push_back(i);
      std::vector<int> vars;
      for (int i = 0; i < ra; ++i) {
        if (rng.UniformInt(2) == 0) vars.push_back(i);
      }
      // Project first-occurrence order is part of the contract: shuffle
      // which variables are kept, not the row order. Keeping none (k = 0)
      // must leave one empty row.
      Relation a = RandomRelation(
          sa, static_cast<int>(rng.UniformInt(9000)), m.lo, m.hi, &rng);
      const Relation want = NaiveProject(a, vars);
      ExpectSame(want, EngineProject(a, vars, nullptr));
      ExpectSame(want, EngineProject(a, vars, &pool));
      ExpectSame(want, a.Project(vars));
    }
  }
}

// A spilled copy of `r`: each morsel written to a spill file as one chunk.
ChunkedRelation SpilledCopy(const Relation& r) {
  auto file = std::make_shared<SpillFile>();
  file->Open();
  ChunkedRelation out(r.schema(), file);
  const int chunks = MorselCount(r.Size());
  out.ResizeChunks(chunks);
  for (int m = 0; m < chunks; ++m) {
    out.WriteChunk(m, MorselData(r, m), MorselAt(m, r.Size()).size());
  }
  out.FinishChunks();
  return out;
}

TEST_F(MorselEngineTest, UnpackableJoinsOfSpilledProbeSideSpill) {
  // Keys that do not pack — three shared 30-bit columns (numbered codes)
  // and no shared column at all (a cross product) — run on the same
  // chunked path as packed ones: over a spilled probe side and under a
  // 4 KiB budget, the outputs spill, byte-equal to NaiveJoin.
  Rng rng(9);
  ThreadPool pool(4);
  std::vector<int> wide;  // 30-bit values: three columns need 90 bits
  for (int i = 0; i < 8; ++i) {
    wide.push_back((1 << 29) + static_cast<int>(rng.UniformInt(1 << 29)));
  }
  auto wide_relation = [&](const std::vector<int>& schema, int rows) {
    Relation r(schema);
    std::vector<int> row(schema.size());
    for (int t = 0; t < rows; ++t) {
      for (int& v : row) v = wide[rng.UniformInt(wide.size())];
      r.AddRow(row.data());
    }
    return r;
  };
  const Relation a = wide_relation({0, 1, 2, 3}, 3 * kMorselRows + 100);
  const Relation on_three = wide_relation({2, 0, 1, 4}, 200);
  const Relation cross = wide_relation({5, 6}, 3);
  const ChunkedRelation spilled_a = SpilledCopy(a);
  SetMemoryBudget(4 << 10);
  for (const Relation* b : {&on_three, &cross}) {
    SCOPED_TRACE(b == &cross ? "cross product" : "three 30-bit columns");
    const Relation want = NaiveJoin(a, *b);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ChunkedRelation got = EngineJoinChunked(spilled_a, *b, p);
      EXPECT_TRUE(got.spilled());
      ExpectSame(want, std::move(got).ToRelation());
    }
  }
  const std::vector<int> onto = {2, 0, 3};
  const Relation want = NaiveProject(a, onto);
  ExpectSame(want, EngineProjectChunked(spilled_a, onto, nullptr));
  ExpectSame(want, EngineProjectChunked(spilled_a, onto, &pool));
}

TEST_F(MorselEngineTest, ChunkedRoundTripResidentAndSpilled) {
  Rng rng(4);
  Relation a = RandomRelation({0, 1, 2}, 10000, 0, 50, &rng);
  // Resident chunking views the flat buffer.
  ChunkedRelation resident{Relation(a)};
  EXPECT_FALSE(resident.spilled());
  EXPECT_EQ(static_cast<long>(a.Size()), resident.TotalRows());
  // Spilled form: write the same rows chunk by chunk, read them back.
  auto file = std::make_shared<SpillFile>();
  file->Open();
  ChunkedRelation spilled(a.schema(), file);
  spilled.ResizeChunks(resident.NumChunks());
  std::vector<int> scratch;
  for (int i = 0; i < resident.NumChunks(); ++i) {
    spilled.WriteChunk(i, resident.LoadChunk(i, &scratch),
                       resident.ChunkRows(i));
  }
  spilled.FinishChunks();
  EXPECT_TRUE(spilled.spilled());
  EXPECT_EQ(resident.TotalRows(), spilled.TotalRows());
  std::vector<int> scratch2;
  for (int i = 0; i < resident.NumChunks(); ++i) {
    ASSERT_EQ(resident.ChunkRows(i), spilled.ChunkRows(i));
    const int* want = resident.LoadChunk(i, &scratch);
    const int* got = spilled.LoadChunk(i, &scratch2);
    const size_t values =
        static_cast<size_t>(resident.ChunkRows(i)) * a.Arity();
    EXPECT_EQ(0, std::memcmp(want, got, values * sizeof(int)));
    // The recorded value range is the chunk's own.
    EXPECT_EQ(spilled.ChunkValues(i).mn, ScanValues(want, values).mn);
    EXPECT_EQ(spilled.ChunkValues(i).mx, ScanValues(want, values).mx);
  }
  Relation back = std::move(spilled).ToRelation();
  ExpectSame(a, back);
}

TEST_F(MorselEngineTest, SpilledJoinChainBitIdenticalToUnlimited) {
  // The satellite spill test: a join chain big enough to blow a tiny
  // budget must spill (nonzero relation.spill counters) and still
  // produce byte-identical projected output, pooled or not.
  Rng rng(5);
  ThreadPool pool(4);
  Relation r1 = RandomRelation({0, 1}, 4000, 0, 40, &rng);
  Relation r2 = RandomRelation({1, 2}, 4000, 0, 40, &rng);
  Relation r3 = RandomRelation({2, 3}, 300, 0, 40, &rng);
  const std::vector<int> chi = {0, 3};

  auto chain = [&](ThreadPool* p) {
    ChunkedRelation acc{Relation(r1)};
    acc = EngineJoinChunked(acc, r2, p);
    acc = EngineJoinChunked(acc, r3, p);
    return EngineProjectChunked(acc, chi, p);
  };

  SetMemoryBudget(0);
  const Relation unlimited = chain(nullptr);

  SetMemoryBudget(64 << 10);  // 64 KiB: the r1⋈r2 intermediate exceeds it
  const long spills_before = SpillPartitions().Value();
  const Relation tiny = chain(nullptr);
  EXPECT_GT(SpillPartitions().Value(), spills_before)
      << "budgeted chain never spilled — the test lost its point";
  ExpectSame(unlimited, tiny);

  const Relation tiny_pooled = chain(&pool);
  ExpectSame(unlimited, tiny_pooled);

  // Randomized sweep: random budgets from absurdly small on up must
  // never change a byte.
  for (int trial = 0; trial < 6; ++trial) {
    SetMemoryBudget(1 + static_cast<long long>(rng.UniformInt(1 << 20)));
    SCOPED_TRACE("budget=" + std::to_string(MemoryBudget()));
    ExpectSame(unlimited, chain(trial % 2 == 0 ? &pool : nullptr));
  }
}

// Registry deltas of one EngineSemijoinInPlace call.
struct SemijoinDeltas {
  long morsels = 0;  // relation.morsels.processed + relation.morsels.skipped
  long skipped = 0;
  long collisions = 0;
  long partitions = 0;
};

Relation SemijoinWithDeltas(const Relation& left, const Relation& right,
                            ThreadPool* pool, SemijoinDeltas* d) {
  metrics::Counter& collisions =
      metrics::GetCounter("relation.probe_collisions");
  const long processed0 = MorselsProcessed().Value();
  const long skipped0 = MorselsSkipped().Value();
  const long collisions0 = collisions.Value();
  const long partitions0 = SpillPartitions().Value();
  Relation out = left;
  EngineSemijoinInPlace(&out, right, pool);
  d->skipped = MorselsSkipped().Value() - skipped0;
  d->morsels = MorselsProcessed().Value() - processed0 + d->skipped;
  d->collisions = collisions.Value() - collisions0;
  d->partitions = SpillPartitions().Value() - partitions0;
  return out;
}

TEST_F(MorselEngineTest, PartitionedSemijoinMatchesUnlimited) {
  Rng rng(6);
  ThreadPool pool(4);
  // Runs left ⋉ right under `budget`, serially and on the pool. Both runs
  // must equal `want` byte for byte, run one morsel work item per left
  // morsel however many partitions the build side takes, and report the
  // same probe collisions. Returns the serial run's deltas.
  auto expect_budgeted = [&](const Relation& left, const Relation& right,
                             const Relation& want, long long budget) {
    SetMemoryBudget(budget);
    SemijoinDeltas serial;
    SemijoinDeltas pooled;
    ExpectSame(want, SemijoinWithDeltas(left, right, nullptr, &serial));
    ExpectSame(want, SemijoinWithDeltas(left, right, &pool, &pooled));
    SetMemoryBudget(0);
    EXPECT_EQ(MorselCount(left.Size()), serial.morsels);
    EXPECT_EQ(MorselCount(left.Size()), pooled.morsels);
    EXPECT_EQ(serial.collisions, pooled.collisions);
    EXPECT_EQ(serial.partitions, pooled.partitions);
    return serial;
  };

  // The reference here is the unlimited (hash-mode) semijoin, which
  // SemijoinMatchesNaiveAllModes checks against NaiveSemijoin: a nested-
  // loop pass over 20000 x 20000 rows would dominate the test under TSan.
  Relation left = RandomRelation({0, 1}, 20000, 0, 3000000, &rng);
  Relation right = RandomRelation({1, 2}, 20000, 0, 3000000, &rng);
  SemijoinDeltas unlimited;
  const Relation want = SemijoinWithDeltas(left, right, nullptr, &unlimited);
  EXPECT_EQ(MorselCount(left.Size()), unlimited.morsels);
  EXPECT_EQ(0, unlimited.partitions);
  // A budget far below the hash-table footprint forces the grace
  // partitioning path (the dense bitmap is also over budget).
  EXPECT_GT(expect_budgeted(left, right, want, 16 << 10).partitions, 0)
      << "budgeted semijoin never partitioned — the test lost its point";

  {
    SCOPED_TRACE("two-column key");
    const Relation l2 = RandomRelation({0, 1, 2}, 9000, 0, 200, &rng);
    const Relation r2 = RandomRelation({1, 2, 3}, 3000, 0, 200, &rng);
    EXPECT_GT(expect_budgeted(l2, r2, NaiveSemijoin(l2, r2), 4 << 10)
                  .partitions,
              0);
  }

  {
    SCOPED_TRACE("left keys partly outside the build range");
    // The first left morsel lies wholly below the build range (a zone-map
    // skip); the rest straddle it, so rows are dropped one by one, and
    // many sit exactly on its ends. An 8-byte budget puts even this
    // small key span over budget.
    Relation l3 = RandomRelation({0, 1}, kMorselRows, 0, 99, &rng);
    const Relation tail = RandomRelation({0, 1}, 6000, 0, 300, &rng);
    for (int t = 0; t < tail.Size(); ++t) l3.AddRow(tail.Row(t));
    const Relation r3 = RandomRelation({1, 2}, 4000, 100, 200, &rng);
    const SemijoinDeltas d = expect_budgeted(l3, r3, NaiveSemijoin(l3, r3), 8);
    EXPECT_GT(d.partitions, 0);
    EXPECT_GE(d.skipped, 1);
  }

  // Randomized sweep: random budgets from absurdly small on up must
  // never change a byte, serially or pooled.
  for (int trial = 0; trial < 6; ++trial) {
    const long long budget =
        1 + static_cast<long long>(rng.UniformInt(1 << 20));
    SCOPED_TRACE("budget=" + std::to_string(budget));
    expect_budgeted(left, right, want, budget);
  }
}

TEST_F(MorselEngineTest, ParseByteSize) {
  long long v = -1;
  EXPECT_TRUE(ParseByteSize("0", &v));
  EXPECT_EQ(0, v);
  EXPECT_TRUE(ParseByteSize("12345", &v));
  EXPECT_EQ(12345, v);
  EXPECT_TRUE(ParseByteSize("4k", &v));
  EXPECT_EQ(4096, v);
  EXPECT_TRUE(ParseByteSize("256M", &v));
  EXPECT_EQ(256LL << 20, v);
  EXPECT_TRUE(ParseByteSize("2g", &v));
  EXPECT_EQ(2LL << 30, v);
  EXPECT_FALSE(ParseByteSize("", &v));
  EXPECT_FALSE(ParseByteSize("k", &v));
  EXPECT_FALSE(ParseByteSize("12x", &v));
  EXPECT_FALSE(ParseByteSize("-5", &v));
  EXPECT_FALSE(ParseByteSize("12 34", &v));
  // Sizes whose suffix product exceeds LLONG_MAX.
  EXPECT_FALSE(ParseByteSize("10000000000000000k", &v));
  EXPECT_FALSE(ParseByteSize("10000000000000m", &v));
  EXPECT_FALSE(ParseByteSize("10000000000g", &v));
  EXPECT_TRUE(ParseByteSize("8589934591g", &v));
  EXPECT_EQ(8589934591LL << 30, v);
}

}  // namespace
}  // namespace hypertree
