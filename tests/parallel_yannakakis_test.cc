// Determinism tests for the parallel Yannakakis paths: every solve /
// count / query-answering entry point must produce bit-identical results
// (assignments, counts, answer tuples in order) and identical relation
// kernel counter deltas with a thread pool as without one.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cq/answer.h"
#include "cq/database.h"
#include "cq/query.h"
#include "csp/counting.h"
#include "csp/decomposition_solving.h"
#include "csp/generators.h"
#include "csp/yannakakis.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "ordering/heuristics.h"
#include "td/tree_decomposition.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

struct Decomps {
  TreeDecomposition td;
  GeneralizedHypertreeDecomposition ghd;
};

Decomps Decompose(const Csp& csp, uint64_t seed) {
  Hypergraph h = csp.ConstraintHypergraph();
  GhwEvaluator eval(h);
  Rng rng(seed);
  EliminationOrdering sigma = MinFillOrdering(eval.primal(), &rng);
  return {TreeDecompositionFromOrdering(eval.primal(), sigma),
          eval.BuildGhd(sigma, CoverMode::kExact)};
}

// Snapshot of the relation kernel counters the PR instruments. The
// parallel passes promise these are schedule-independent, so the deltas
// of a sequential and a parallel run must match exactly.
std::map<std::string, long> KernelCounters() {
  return {
      {"rows_joined", metrics::GetCounter("relation.rows_joined").Value()},
      {"rows_semijoin_dropped",
       metrics::GetCounter("relation.rows_semijoin_dropped").Value()},
      {"probe_collisions",
       metrics::GetCounter("relation.probe_collisions").Value()},
      {"morsels_processed",
       metrics::GetCounter("relation.morsels.processed").Value()},
      {"morsels_skipped",
       metrics::GetCounter("relation.morsels.skipped").Value()},
  };
}

std::map<std::string, long> Delta(const std::map<std::string, long>& before,
                                  const std::map<std::string, long>& after) {
  std::map<std::string, long> d;
  for (const auto& [k, v] : after) d[k] = v - before.at(k);
  return d;
}

class ParallelYannakakisTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelYannakakisTest, SolveAndCountMatchSequential) {
  uint64_t seed = GetParam();
  ThreadPool pool(4);
  Hypergraph h = RandomHypergraph(9, 10, 2, 3, seed * 17 + 3);
  for (double tightness : {0.25, 0.55}) {
    Csp csp = RandomCspFromHypergraph(h, 2, tightness, false, seed * 5 + 1);
    Decomps d = Decompose(csp, seed);

    auto seq_before = KernelCounters();
    auto td_seq = SolveViaTreeDecomposition(csp, d.td);
    auto td_delta_seq = Delta(seq_before, KernelCounters());

    auto par_before = KernelCounters();
    auto td_par = SolveViaTreeDecomposition(csp, d.td, nullptr, &pool);
    auto td_delta_par = Delta(par_before, KernelCounters());

    ASSERT_EQ(td_seq.has_value(), td_par.has_value())
        << "seed " << seed << " t " << tightness;
    if (td_seq.has_value()) {
      EXPECT_EQ(*td_seq, *td_par) << "seed " << seed << " t " << tightness;
    }
    EXPECT_EQ(td_delta_seq, td_delta_par)
        << "kernel counters diverged, seed " << seed << " t " << tightness;

    auto ghd_seq = SolveViaGhd(csp, d.ghd);
    auto ghd_par = SolveViaGhd(csp, d.ghd, nullptr, &pool);
    ASSERT_EQ(ghd_seq.has_value(), ghd_par.has_value()) << "seed " << seed;
    if (ghd_seq.has_value()) {
      EXPECT_EQ(*ghd_seq, *ghd_par) << "seed " << seed;
    }

    EXPECT_EQ(CountViaTreeDecomposition(csp, d.td),
              CountViaTreeDecomposition(csp, d.td, &pool))
        << "seed " << seed;
    EXPECT_EQ(CountViaGhd(csp, d.ghd), CountViaGhd(csp, d.ghd, &pool))
        << "seed " << seed;
  }
}

TEST_P(ParallelYannakakisTest, AcyclicSolveMatchesSequential) {
  uint64_t seed = GetParam();
  ThreadPool pool(4);
  Hypergraph h = RandomAcyclicHypergraph(8, 3, seed + 1);
  for (double tightness : {0.4, 0.7}) {
    Csp csp = RandomCspFromHypergraph(h, 2, tightness, false, seed + 21);
    auto seq = SolveAcyclicCsp(csp);
    auto par = SolveAcyclicCsp(csp, &pool);
    ASSERT_EQ(seq.has_value(), par.has_value()) << "seed " << seed;
    if (seq.has_value()) {
      EXPECT_EQ(*seq, *par) << "seed " << seed;
    }
    EXPECT_EQ(CountAcyclicCsp(csp), CountAcyclicCsp(csp, &pool));
  }
}

TEST_P(ParallelYannakakisTest, AnswerQueryBitIdenticalTupleOrder) {
  uint64_t seed = GetParam();
  ThreadPool pool(4);
  Rng rng(seed * 31 + 7);
  Database db;
  for (const char* name : {"a", "b", "c"}) {
    std::vector<std::vector<int>> rows;
    int count = 6 + rng.UniformInt(12);
    for (int i = 0; i < count; ++i) {
      rows.push_back({rng.UniformInt(5), rng.UniformInt(5)});
    }
    db.AddRows(name, std::move(rows));
  }
  // d's first column lies outside the values of a, b and c (0..4), so a
  // query that reaches it through a shared variable has no answer.
  db.AddRows("d", {{5, 1}, {6, 2}, {7, 3}});
  struct Case {
    const char* text;
    bool empty;
  };
  const Case cases[] = {
      {"ans(X, W) :- a(X, Y), b(Y, Z), c(Z, W).", false},
      {"ans(X, Y, Z) :- a(X, Y), b(Y, Z), c(Z, X).", false},  // cyclic
      {"ans() :- a(X, Y), b(Y, X).", false},                  // Boolean
      {"ans(X, W) :- a(X, Y), b(Y, Z), d(Z, W).", true},
      {"ans() :- a(X, Y), b(Y, Z), d(Z, X).", true},          // Boolean
  };
  for (const auto& [text, empty] : cases) {
    auto q = ParseConjunctiveQuery(text);
    ASSERT_TRUE(q.has_value()) << text;
    AnswerStats seq_stats, par_stats;
    auto seq_before = KernelCounters();
    auto seq = AnswerQuery(*q, db, nullptr, &seq_stats);
    auto seq_delta = Delta(seq_before, KernelCounters());
    auto par_before = KernelCounters();
    auto par = AnswerQuery(*q, db, nullptr, &par_stats, &pool);
    auto par_delta = Delta(par_before, KernelCounters());
    ASSERT_TRUE(seq.has_value() && par.has_value()) << text;
    // Bit-identical: schema, tuples AND tuple order.
    EXPECT_EQ(seq->schema(), par->schema()) << text;
    EXPECT_EQ(seq->ToTuples(), par->ToTuples()) << text << " seed " << seed;
    EXPECT_EQ(seq_stats.intermediate_tuples, par_stats.intermediate_tuples)
        << text << " seed " << seed;
    EXPECT_EQ(seq_delta, par_delta)
        << "kernel counters diverged, " << text << " seed " << seed;
    if (empty) {
      EXPECT_TRUE(seq->Empty()) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelYannakakisTest,
                         ::testing::Range(0, 8));

TEST(ParallelYannakakisTest, UnsatIsDetectedWithPool) {
  ThreadPool pool(4);
  Csp csp = SatCsp(2, {{1}, {-1}});
  Decomps d = Decompose(csp, 5);
  EXPECT_FALSE(SolveViaTreeDecomposition(csp, d.td, nullptr, &pool).has_value());
  EXPECT_FALSE(SolveViaGhd(csp, d.ghd, nullptr, &pool).has_value());
  EXPECT_EQ(CountViaTreeDecomposition(csp, d.td, &pool), 0);
}

TEST(ParallelYannakakisTest, ManyThreadsOnTinyTree) {
  // More threads than nodes: the scheduler must not deadlock or misorder.
  ThreadPool pool(8);
  Csp csp = AustraliaMapColoring();
  Decomps d = Decompose(csp, 2);
  auto solution = SolveViaTreeDecomposition(csp, d.td, nullptr, &pool);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
}

}  // namespace
}  // namespace hypertree
