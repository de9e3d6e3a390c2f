// Property tests for the flat-storage relation kernel: randomized
// equivalence against naive reference implementations of join, semijoin
// and projection, edge cases (empty schemas, no shared variables, empty
// relations), in-place semijoin order preservation, the two hash tables
// (CodeTable and KeyNumbering: ordinals, lookups, collision counts and
// concurrent probes), and a collision-rate regression test for the
// splitmix64 row hashing.

#include "csp/relation.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "csp/key_tables.h"
#include "csp/tree_schedule.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

using Tuples = std::vector<std::vector<int>>;

Relation Make(std::vector<int> schema, Tuples tuples) {
  Relation r(std::move(schema));
  for (const auto& t : tuples) r.AddTuple(t);
  return r;
}

Tuples Sorted(const Relation& r) {
  Tuples t = r.ToTuples();
  std::sort(t.begin(), t.end());
  return t;
}

// ---------------------------------------------------------------------------
// Naive reference implementations (tuple-of-vectors semantics).

std::vector<std::pair<int, int>> SharedPositions(const Relation& a,
                                                 const Relation& b) {
  std::vector<std::pair<int, int>> shared;
  for (int i = 0; i < a.Arity(); ++i) {
    int j = b.IndexOf(a.schema()[i]);
    if (j >= 0) shared.push_back({i, j});
  }
  return shared;
}

bool Agree(const std::vector<int>& ta, const std::vector<int>& tb,
           const std::vector<std::pair<int, int>>& shared) {
  for (auto [i, j] : shared) {
    if (ta[i] != tb[j]) return false;
  }
  return true;
}

Relation NaiveJoin(const Relation& a, const Relation& b) {
  std::vector<int> schema = a.schema();
  std::vector<int> extra;
  for (int i = 0; i < b.Arity(); ++i) {
    if (a.IndexOf(b.schema()[i]) < 0) {
      schema.push_back(b.schema()[i]);
      extra.push_back(i);
    }
  }
  auto shared = SharedPositions(a, b);
  Relation out(schema);
  for (const auto& ta : a.ToTuples()) {
    for (const auto& tb : b.ToTuples()) {
      if (!Agree(ta, tb, shared)) continue;
      std::vector<int> t = ta;
      for (int i : extra) t.push_back(tb[i]);
      out.AddTuple(t);
    }
  }
  return out;
}

Relation NaiveSemijoin(const Relation& a, const Relation& b) {
  auto shared = SharedPositions(a, b);
  Relation out(a.schema());
  for (const auto& ta : a.ToTuples()) {
    for (const auto& tb : b.ToTuples()) {
      if (Agree(ta, tb, shared)) {
        out.AddTuple(ta);
        break;
      }
    }
  }
  return out;
}

Relation NaiveProject(const Relation& a, const std::vector<int>& vars) {
  Relation out(vars);
  std::set<std::vector<int>> seen;
  for (const auto& ta : a.ToTuples()) {
    std::vector<int> t;
    for (int v : vars) t.push_back(ta[a.IndexOf(v)]);
    if (seen.insert(t).second) out.AddTuple(t);
  }
  return out;
}

// Random relation: arity in [0, max_arity], schema drawn from `universe`
// variables (so overlap between two relations varies from full to none),
// values in [0, domain).
Relation RandomRelation(Rng* rng, int universe, int max_arity, int max_rows,
                        int domain) {
  int arity = rng->UniformInt(max_arity + 1);
  std::vector<int> pool(universe);
  for (int i = 0; i < universe; ++i) pool[i] = i;
  for (int i = 0; i < arity; ++i) {
    std::swap(pool[i], pool[i + rng->UniformInt(universe - i)]);
  }
  pool.resize(arity);
  Relation r(pool);
  int rows = rng->UniformInt(max_rows + 1);
  if (arity == 0) rows = std::min(rows, 1);  // set semantics: at most {()}
  std::set<std::vector<int>> seen;
  std::vector<int> t(arity);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < arity; ++j) t[j] = rng->UniformInt(domain);
    if (seen.insert(t).second) r.AddRow(t.data());
  }
  return r;
}

// ---------------------------------------------------------------------------

class KernelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelPropertyTest, JoinSemijoinProjectMatchNaive) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int iter = 0; iter < 30; ++iter) {
    Relation a = RandomRelation(&rng, 6, 4, 24, 4);
    Relation b = RandomRelation(&rng, 6, 4, 24, 4);

    EXPECT_EQ(Sorted(a.Join(b)), Sorted(NaiveJoin(a, b)));
    EXPECT_EQ(a.Join(b).schema(), NaiveJoin(a, b).schema());

    EXPECT_EQ(Sorted(a.Semijoin(b)), Sorted(NaiveSemijoin(a, b)));

    // Projection onto a random subset of a's schema.
    std::vector<int> vars = a.schema();
    for (size_t k = vars.size(); k > 0; --k) {
      if (rng.UniformInt(2) == 0) vars.erase(vars.begin() + (k - 1));
    }
    EXPECT_EQ(Sorted(a.Project(vars)), Sorted(NaiveProject(a, vars)));
  }
}

TEST_P(KernelPropertyTest, SemijoinInPlaceMatchesCopyAndPreservesOrder) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 5);
  for (int iter = 0; iter < 30; ++iter) {
    Relation a = RandomRelation(&rng, 6, 4, 24, 4);
    Relation b = RandomRelation(&rng, 6, 4, 24, 4);
    Relation copy = a.Semijoin(b);
    Relation in_place = a;
    in_place.SemijoinInPlace(b);
    // Exact row order, not just set equality: in-place compaction must
    // keep surviving rows in their original order.
    EXPECT_EQ(in_place.ToTuples(), copy.ToTuples());
    EXPECT_EQ(in_place.schema(), a.schema());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPropertyTest, ::testing::Range(0, 8));

TEST(KernelEdgeCaseTest, EmptySchemaIdentityAndZero) {
  Relation id(std::vector<int>{});  // {()}: join/semijoin identity
  id.AddTuple({});
  Relation zero(std::vector<int>{});  // {}: annihilates
  Relation r = Make({0, 1}, {{1, 2}, {3, 4}});

  EXPECT_EQ(Sorted(r.Join(id)), Sorted(r));
  EXPECT_EQ(Sorted(id.Join(r)), Sorted(r));
  EXPECT_TRUE(r.Join(zero).Empty());
  EXPECT_EQ(r.Semijoin(id).Size(), 2);
  EXPECT_TRUE(r.Semijoin(zero).Empty());
  EXPECT_EQ(id.Join(id).Size(), 1);
  EXPECT_EQ(Sorted(id), Tuples(1));  // exactly the empty tuple
  EXPECT_EQ(Sorted(zero), Tuples());
  // Projecting away everything: nonempty input yields {()}.
  EXPECT_EQ(r.Project({}).Size(), 1);
  EXPECT_TRUE(zero.Project({}).Empty());
}

TEST(KernelEdgeCaseTest, NoSharedVariables) {
  Relation r = Make({0, 1}, {{1, 2}, {3, 4}});
  Relation s = Make({2}, {{7}, {8}, {9}});
  Relation empty_s(std::vector<int>{2});

  EXPECT_EQ(r.Join(s).Size(), 6);  // cross product
  EXPECT_EQ(Sorted(r.Join(s)), Sorted(NaiveJoin(r, s)));
  EXPECT_EQ(r.Semijoin(s).Size(), 2);  // other nonempty: keep all
  EXPECT_TRUE(r.Semijoin(empty_s).Empty());
  Relation in_place = r;
  in_place.SemijoinInPlace(empty_s);
  EXPECT_TRUE(in_place.Empty());
}

TEST(KernelEdgeCaseTest, EmptyRelationsPropagate) {
  Relation empty(std::vector<int>{0, 1});
  Relation r = Make({1, 2}, {{1, 2}});
  EXPECT_TRUE(empty.Join(r).Empty());
  EXPECT_TRUE(r.Join(empty).Empty());
  EXPECT_TRUE(empty.Semijoin(r).Empty());
  EXPECT_TRUE(r.Semijoin(empty).Empty());
  EXPECT_TRUE(empty.Project({0}).Empty());
}

// ---------------------------------------------------------------------------
// The two hash tables (csp/key_tables.h), each against a naive
// linear-probe model: a slot array of first-insert ordinals probed from
// hash & (capacity - 1), with the steps past occupied non-matching slots
// counted as collisions.

template <typename Key>
class LinearProbeModel {
 public:
  explicit LinearProbeModel(size_t capacity) : slots_(capacity, -1) {}

  // Ordinal of `key` (inserting it when `insert`), or -1.
  int Lookup(uint64_t hash, const Key& key, bool insert, long* steps) {
    const size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    while (slots_[s] != -1 && keys_[slots_[s]] != key) {
      ++*steps;
      s = (s + 1) & mask;
    }
    if (slots_[s] == -1 && insert) {
      slots_[s] = static_cast<int>(keys_.size());
      keys_.push_back(key);
    }
    return slots_[s];
  }

 private:
  std::vector<int> slots_;
  std::vector<Key> keys_;
};

// Codes with repeats and clustered low bits, so both tables see repeated
// inserts and real collision chains.
std::vector<uint64_t> TestCodes(Rng* rng, int n) {
  std::vector<uint64_t> codes;
  for (int i = 0; i < n; ++i) {
    codes.push_back(rng->UniformInt(3) == 0 && !codes.empty()
                        ? codes[rng->UniformInt(static_cast<int>(codes.size()))]
                        : static_cast<uint64_t>(rng->UniformInt(4000)) << 20);
  }
  return codes;
}

TEST(CodeTableTest, OrdinalsAndCollisionsMatchLinearProbeModel) {
  Rng rng(42);
  const std::vector<uint64_t> codes = TestCodes(&rng, 3000);
  CodeTable table(codes.size());
  LinearProbeModel<uint64_t> model(NextPow2AtLeast(codes.size() * 2));
  std::map<uint64_t, int> first;  // first-insert ordinals
  long collisions = 0;
  long model_steps = 0;
  for (const uint64_t code : codes) {
    first.emplace(code, static_cast<int>(first.size()));
    const int32_t ordinal = table.Insert(code, &collisions);
    EXPECT_EQ(ordinal, first.at(code));
    EXPECT_EQ(ordinal, model.Lookup(kernels::SplitMix64(code), code,
                                    /*insert=*/true, &model_steps));
    // A repeated insert returns the same ordinal.
    EXPECT_EQ(table.Insert(code, &collisions), ordinal);
    model.Lookup(kernels::SplitMix64(code), code, false, &model_steps);
  }
  EXPECT_EQ(table.size(), static_cast<int>(first.size()));
  EXPECT_GT(model_steps, 0);
  EXPECT_EQ(collisions, model_steps);
  EXPECT_EQ(table.bytes(), CodeTable::BytesFor(codes.size()));

  // Probes: present codes give their ordinals, absent ones -1.
  std::vector<uint64_t> probes = codes;
  for (int i = 0; i < 500; ++i) probes.push_back((uint64_t{1} << 40) + i);
  std::vector<int32_t> got(probes.size());
  const long probe_collisions =
      table.Probe(probes.data(), static_cast<int>(probes.size()), got.data());
  long probe_steps = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto it = first.find(probes[i]);
    EXPECT_EQ(got[i], it == first.end() ? -1 : it->second);
    model.Lookup(kernels::SplitMix64(probes[i]), probes[i], false,
                 &probe_steps);
  }
  EXPECT_EQ(probe_collisions, probe_steps);
}

TEST(KeyNumberingTest, NumbersAndCollisionsMatchLinearProbeModel) {
  // Three-column tuples read through permuted positions, with repeats.
  Rng rng(7);
  const int pos[3] = {2, 0, 1};
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(rng.UniformInt(3) == 0 && !rows.empty()
                       ? rows[rng.UniformInt(static_cast<int>(rows.size()))]
                       : std::vector<int>{rng.UniformRange(-50, 50),
                                          rng.UniformInt(9),
                                          rng.UniformInt(1 << 30)});
  }
  KeyNumbering table(3, static_cast<long>(rows.size()));
  LinearProbeModel<std::vector<int>> model(NextPow2AtLeast(rows.size() * 2));
  std::map<std::vector<int>, int> first;  // first-insert numbers
  long collisions = 0;
  long model_steps = 0;
  for (const std::vector<int>& row : rows) {
    const std::vector<int> key = {row[pos[0]], row[pos[1]], row[pos[2]]};
    first.emplace(key, static_cast<int>(first.size()));
    const uint64_t number = table.Insert(row.data(), pos, &collisions);
    EXPECT_EQ(number, static_cast<uint64_t>(first.at(key)));
    EXPECT_EQ(static_cast<int>(number),
              model.Lookup(HashRowKey(row.data(), pos, 3), key,
                           /*insert=*/true, &model_steps));
    EXPECT_EQ(table.Insert(row.data(), pos, &collisions), number);
    model.Lookup(HashRowKey(row.data(), pos, 3), key, false, &model_steps);
  }
  EXPECT_EQ(table.size(), static_cast<int>(first.size()));
  EXPECT_EQ(collisions, model_steps);

  // Lookups: present tuples give their numbers, absent ones kAbsentCode,
  // with the model's collision count.
  long find_collisions = 0;
  long find_steps = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::vector<int> row = {rng.UniformRange(-60, 60),
                                  rng.UniformInt(12), rng.UniformInt(1 << 30)};
    const std::vector<int> key = {row[pos[0]], row[pos[1]], row[pos[2]]};
    const auto it = first.find(key);
    EXPECT_EQ(table.Find(row.data(), pos, &find_collisions),
              it == first.end() ? kAbsentCode
                                : static_cast<uint64_t>(it->second));
    model.Lookup(HashRowKey(row.data(), pos, 3), key, false, &find_steps);
  }
  EXPECT_EQ(find_collisions, find_steps);
  // The numbered tuples, in number order.
  std::vector<int> tuples = table.TakeTuples();
  for (const auto& [key, number] : first) {
    EXPECT_TRUE(std::equal(key.begin(), key.end(),
                           tuples.begin() + static_cast<long>(number) * 3));
  }
}

TEST(KeyNumberingTest, NumberRowsIsAMembershipTable) {
  Relation r = Make({4, 5}, {{1, 2}, {3, 4}, {1, 2}, {-7, 0}});
  const KeyNumbering rows = NumberRows(r);
  EXPECT_EQ(rows.size(), 3);
  const int identity[2] = {0, 1};
  const int swapped[2] = {1, 0};
  long collisions = 0;
  for (const auto& t : Tuples{{1, 2}, {3, 4}, {-7, 0}}) {
    EXPECT_NE(rows.Find(t.data(), identity, &collisions), kAbsentCode);
  }
  const int reversed[2] = {2, 1};
  EXPECT_NE(rows.Find(reversed, swapped, &collisions), kAbsentCode);
  EXPECT_EQ(rows.Find(reversed, identity, &collisions), kAbsentCode);
  const int absent[2] = {0, -7};
  EXPECT_EQ(rows.Find(absent, identity, &collisions), kAbsentCode);

  // Arity 0: {()} holds the empty tuple, {} does not.
  Relation id(std::vector<int>{});
  id.AddTuple({});
  EXPECT_NE(NumberRows(id).Find(nullptr, nullptr, &collisions), kAbsentCode);
  EXPECT_EQ(NumberRows(Relation(std::vector<int>{}))
                .Find(nullptr, nullptr, &collisions),
            kAbsentCode);
}

TEST(KeyTablesTest, ConcurrentConstProbesMatchSerial) {
  // Filled tables are read-only: probes from many pool threads at once
  // (the morsel loops' access pattern) see exactly the serial results.
  Rng rng(3);
  const std::vector<uint64_t> codes = TestCodes(&rng, 4096);
  CodeTable code_table(codes.size());
  long collisions = 0;
  for (size_t i = 0; i < codes.size(); i += 2) {
    code_table.Insert(codes[i], &collisions);
  }
  Relation r(std::vector<int>{0, 1});
  for (size_t i = 0; i < codes.size(); i += 2) {
    r.AddTuple({static_cast<int>(codes[i] >> 20), static_cast<int>(i % 7)});
  }
  const KeyNumbering rows = NumberRows(r);
  const int identity[2] = {0, 1};
  auto probe = [&](std::vector<int32_t>* ordinals,
                   std::vector<uint64_t>* numbers) {
    ordinals->resize(codes.size());
    const long c = code_table.Probe(
        codes.data(), static_cast<int>(codes.size()), ordinals->data());
    long find_collisions = 0;
    numbers->clear();
    for (size_t i = 0; i < codes.size(); ++i) {
      const int row[2] = {static_cast<int>(codes[i] >> 20),
                          static_cast<int>(i % 7)};
      numbers->push_back(rows.Find(row, identity, &find_collisions));
    }
    return c + find_collisions;
  };
  std::vector<int32_t> want_ordinals;
  std::vector<uint64_t> want_numbers;
  const long want_collisions = probe(&want_ordinals, &want_numbers);
  constexpr int kTasks = 32;
  std::vector<std::vector<int32_t>> ordinals(kTasks);
  std::vector<std::vector<uint64_t>> numbers(kTasks);
  std::vector<long> task_collisions(kTasks);
  ThreadPool pool(4);
  ParallelFor(kTasks, &pool, [&](int t) {
    task_collisions[t] = probe(&ordinals[t], &numbers[t]);
  });
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ordinals[t], want_ordinals);
    EXPECT_EQ(numbers[t], want_numbers);
    EXPECT_EQ(task_collisions[t], want_collisions);
  }
}

// Regression test for the old additive mixing (h = h * P + (x + c)), which
// collided dense small-domain pairs: (a+1, b) and (a, b+P) style patterns
// hashed equal, degrading joins to quadratic chains. splitmix64 per
// element keeps all dense pairs distinct.
TEST(HashQualityTest, DensePairsHaveNoFullHashCollisions) {
  constexpr int kDomain = 48;
  const int pos[2] = {0, 1};
  std::set<uint64_t> hashes;
  int row[2];
  for (int a = 0; a < kDomain; ++a) {
    for (int b = 0; b < kDomain; ++b) {
      row[0] = a;
      row[1] = b;
      hashes.insert(HashRowKey(row, pos, 2));
    }
  }
  EXPECT_EQ(hashes.size(), static_cast<size_t>(kDomain) * kDomain);
}

TEST(HashQualityTest, LowBitsSpreadAcrossBuckets) {
  // Bucketed collision rate: 2304 dense pairs into 4096 buckets (the
  // power-of-two table the kernel uses) must stay near the birthday
  // bound, not collapse onto a few chains.
  constexpr int kDomain = 48;
  constexpr uint64_t kMask = 4095;
  const int pos[2] = {0, 1};
  std::vector<int> bucket(kMask + 1, 0);
  int row[2];
  int collisions = 0;
  for (int a = 0; a < kDomain; ++a) {
    for (int b = 0; b < kDomain; ++b) {
      row[0] = a;
      row[1] = b;
      collisions += bucket[HashRowKey(row, pos, 2) & kMask]++;
    }
  }
  // Expected collisions for 2304 random keys in 4096 buckets ~= 590.
  // The old additive mixing produced tens of thousands here.
  EXPECT_LT(collisions, 1200);
}

TEST(HashQualityTest, KeyPositionsMatchGatheredValues) {
  // HashRowKey through positions must agree with the hash of the
  // gathered values, so build and probe sides of a join (or a bag
  // assignment and a constraint row) can hash different layouts.
  const int identity[4] = {0, 1, 2, 3};
  int row[4] = {5, -3, 0, 1000000};
  int pos[4] = {3, 1, 0, 2};
  int gathered[4] = {1000000, -3, 5, 0};
  EXPECT_EQ(HashRowKey(row, pos, 4), HashRowKey(gathered, identity, 4));
  EXPECT_NE(HashRowKey(row, identity, 4), HashRowKey(gathered, identity, 4));
}

}  // namespace
}  // namespace hypertree
