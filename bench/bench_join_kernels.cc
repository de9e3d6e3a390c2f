// Microbenchmarks for the flat-storage relation kernel: hash join,
// semijoin (copying, in-place, and in-place under a memory budget),
// projection and row-table membership over generated relations of varying
// arity, cardinality and join selectivity.
//
// Selectivity is steered through the value domain: keys drawn from a
// domain of size `d` give an expected `rows/d` matches per probe, so
// Arg pairs (rows, domain) sweep from sparse (few matches) to dense
// (many matches) joins.

#include <benchmark/benchmark.h>

#include <vector>

#include "csp/key_tables.h"
#include "csp/morsel.h"
#include "csp/relation.h"
#include "util/rng.h"

namespace hypertree {
namespace {

// Relation over `schema` with `rows` random tuples, values in [0, domain).
Relation MakeRelation(std::vector<int> schema, int rows, int domain,
                      uint64_t seed) {
  Rng rng(seed);
  Relation r(std::move(schema));
  r.Reserve(rows);
  std::vector<int> t(r.Arity());
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < r.Arity(); ++j) t[j] = rng.UniformInt(domain);
    r.AddTuple(t);
  }
  return r;
}

// Binary join on one shared variable: r(0,1) |x| s(1,2).
void BM_JoinBinary(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int domain = static_cast<int>(state.range(1));
  Relation r = MakeRelation({0, 1}, rows, domain, 1);
  Relation s = MakeRelation({1, 2}, rows, domain, 2);
  long out_rows = 0;
  for (auto _ : state) {
    Relation j = r.Join(s);
    out_rows += j.Size();
    benchmark::DoNotOptimize(j.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
  state.counters["out_rows"] =
      benchmark::Counter(static_cast<double>(out_rows),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_JoinBinary)
    ->Args({1024, 64})     // dense: ~16 matches per probe
    ->Args({1024, 4096})   // sparse: <1 match per probe
    ->Args({16384, 256})
    ->Args({16384, 65536});

// Wider keys: join on two shared variables, arity-4 relations.
void BM_JoinWideKey(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int domain = static_cast<int>(state.range(1));
  Relation r = MakeRelation({0, 1, 2, 3}, rows, domain, 3);
  Relation s = MakeRelation({2, 3, 4, 5}, rows, domain, 4);
  for (auto _ : state) {
    Relation j = r.Join(s);
    benchmark::DoNotOptimize(j.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}
BENCHMARK(BM_JoinWideKey)->Args({4096, 16})->Args({4096, 512});

void BM_Semijoin(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int domain = static_cast<int>(state.range(1));
  Relation r = MakeRelation({0, 1}, rows, domain, 5);
  Relation s = MakeRelation({1, 2}, rows / 4, domain, 6);
  for (auto _ : state) {
    Relation sj = r.Semijoin(s);
    benchmark::DoNotOptimize(sj.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}
BENCHMARK(BM_Semijoin)->Args({16384, 64})->Args({16384, 4096});

// In-place variant: copy cost included so the numbers compare directly
// with BM_Semijoin (which also materializes a fresh relation per iter).
void BM_SemijoinInPlace(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int domain = static_cast<int>(state.range(1));
  Relation r = MakeRelation({0, 1}, rows, domain, 5);
  Relation s = MakeRelation({1, 2}, rows / 4, domain, 6);
  for (auto _ : state) {
    Relation work = r;
    work.SemijoinInPlace(s);
    benchmark::DoNotOptimize(work.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}
BENCHMARK(BM_SemijoinInPlace)->Args({16384, 64})->Args({16384, 4096});

// BM_SemijoinInPlace's shapes over a 2^20 value domain under a 16 KiB
// memory budget: the dense bitmap and the hash table are both over
// budget, so the semijoin grace-partitions both sides through a spill
// file (the larger-than-core semijoin path).
void BM_SemijoinInPlaceBudgeted(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int domain = static_cast<int>(state.range(1));
  Relation r = MakeRelation({0, 1}, rows, domain, 5);
  Relation s = MakeRelation({1, 2}, rows / 4, domain, 6);
  SetMemoryBudget(16 << 10);
  for (auto _ : state) {
    Relation work = r;
    work.SemijoinInPlace(s);
    benchmark::DoNotOptimize(work.data().data());
  }
  SetMemoryBudget(0);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}
BENCHMARK(BM_SemijoinInPlaceBudgeted)->Args({16384, 1 << 20});

void BM_Project(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int domain = static_cast<int>(state.range(1));
  Relation r = MakeRelation({0, 1, 2, 3}, rows, domain, 7);
  std::vector<int> onto = {2, 0};
  for (auto _ : state) {
    Relation p = r.Project(onto);
    benchmark::DoNotOptimize(p.data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}
BENCHMARK(BM_Project)->Args({16384, 8})->Args({16384, 1024});

// Membership: the constraint check of bag solving and backtracking, a
// lookup in the relation's row table (NumberRows) through the scope's
// positions.
void BM_Contains(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int domain = static_cast<int>(state.range(1));
  Relation r = MakeRelation({0, 1, 2}, rows, domain, 8);
  const KeyNumbering table = NumberRows(r);
  const int pos[3] = {0, 1, 2};
  Rng rng(9);
  std::vector<int> probe(3);
  for (int j = 0; j < 3; ++j) probe[j] = rng.UniformInt(domain);
  long hits = 0;
  long collisions = 0;
  for (auto _ : state) {
    probe[0] = (probe[0] + 1) % domain;
    hits += table.Find(probe.data(), pos, &collisions) != kAbsentCode ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Contains)->Args({1024, 16})->Args({65536, 64});

}  // namespace
}  // namespace hypertree

BENCHMARK_MAIN();
