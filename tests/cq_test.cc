#include <algorithm>

#include <gtest/gtest.h>

#include "cq/answer.h"
#include "cq/database.h"
#include "cq/query.h"
#include "hypergraph/acyclicity.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hypertree {
namespace {

Database SmallDb() {
  Database db;
  db.AddRows("r", {{1, 2}, {1, 3}, {2, 3}, {4, 4}});
  db.AddRows("s", {{2, 5}, {3, 5}, {3, 6}, {4, 4}});
  db.AddRows("t", {{5}, {6}});
  return db;
}

std::vector<std::vector<int>> SortedTuples(const Relation& r) {
  auto tuples = r.ToTuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(CqParserTest, ParsesChainQuery) {
  auto q = ParseConjunctiveQuery("ans(X, Z) :- r(X, Y), s(Y, Z).");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->head, (std::vector<std::string>{"X", "Z"}));
  ASSERT_EQ(q->atoms.size(), 2u);
  EXPECT_EQ(q->atoms[0].relation, "r");
  EXPECT_EQ(q->atoms[1].vars, (std::vector<std::string>{"Y", "Z"}));
  EXPECT_EQ(q->Variables(), (std::vector<std::string>{"X", "Z", "Y"}));
}

TEST(CqParserTest, ErrorsAreReported) {
  std::string error;
  EXPECT_FALSE(ParseConjunctiveQuery("ans(X) - r(X).", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseConjunctiveQuery("ans(W) :- r(X, Y).", &error).has_value());
  EXPECT_NE(error.find("W"), std::string::npos);  // unbound head var
  // A body atom needs a variable (it is a hyperedge of the query
  // hypergraph); an empty head is a Boolean query and stays legal.
  error.clear();
  EXPECT_FALSE(ParseConjunctiveQuery("ans() :- t().", &error).has_value());
  EXPECT_NE(error.find("no variables"), std::string::npos);
  EXPECT_FALSE(
      ParseConjunctiveQuery("ans(X) :- r(X, Y), t().", &error).has_value());
  EXPECT_TRUE(ParseConjunctiveQuery("ans() :- t(X).", &error).has_value());
  // Only whitespace may follow the closing period.
  for (const char* text : {"ans(X) :- r(X). s(", "ans(X) :- r(X). garbage"}) {
    error.clear();
    EXPECT_FALSE(ParseConjunctiveQuery(text, &error).has_value()) << text;
    EXPECT_NE(error.find("after '.'"), std::string::npos) << text;
  }
  EXPECT_TRUE(ParseConjunctiveQuery("ans(X) :- r(X). \n", &error).has_value());
}

TEST(CqParserTest, QueryHypergraphStructure) {
  auto q = ParseConjunctiveQuery("ans(X) :- r(X, Y), s(Y, Z), t(Z, X).");
  ASSERT_TRUE(q.has_value());
  Hypergraph h = q->QueryHypergraph();
  EXPECT_EQ(h.NumVertices(), 3);
  EXPECT_EQ(h.NumEdges(), 3);
  EXPECT_FALSE(IsAlphaAcyclic(h));  // triangle
}

TEST(CqAnswerTest, ChainQueryMatchesBruteForce) {
  auto q = ParseConjunctiveQuery("ans(X, Z) :- r(X, Y), s(Y, Z).");
  ASSERT_TRUE(q.has_value());
  Database db = SmallDb();
  auto fast = AnswerQuery(*q, db);
  auto slow = BruteForceAnswer(*q, db);
  ASSERT_TRUE(fast.has_value() && slow.has_value());
  EXPECT_EQ(SortedTuples(*fast), SortedTuples(*slow));
  // Distinct (X,Z): (1,5), (1,6), (2,5), (2,6), (4,4).
  EXPECT_EQ(fast->Size(), 5);
}

TEST(CqAnswerTest, BooleanQuery) {
  Database db = SmallDb();
  auto yes = ParseConjunctiveQuery("ans() :- r(X, Y), s(Y, Z), t(Z).");
  ASSERT_TRUE(yes.has_value());
  auto result = AnswerQuery(*yes, db);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->Size(), 1);  // true
  auto no = ParseConjunctiveQuery("ans() :- t(Z), r(Z, W).");
  ASSERT_TRUE(no.has_value());
  auto result2 = AnswerQuery(*no, db);
  ASSERT_TRUE(result2.has_value());
  EXPECT_EQ(result2->Size(), 0);  // false: t holds 5,6; r has no such X
}

TEST(CqAnswerTest, RepeatedVariablesInAtom) {
  auto q = ParseConjunctiveQuery("ans(X) :- r(X, X).");
  ASSERT_TRUE(q.has_value());
  auto result = AnswerQuery(*q, SmallDb());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(SortedTuples(*result),
            (std::vector<std::vector<int>>{{4}}));  // only r(4,4)
}

TEST(CqAnswerTest, MissingTableReported) {
  auto q = ParseConjunctiveQuery("ans(X) :- nope(X).");
  ASSERT_TRUE(q.has_value());
  std::string error;
  EXPECT_FALSE(AnswerQuery(*q, SmallDb(), &error).has_value());
  EXPECT_NE(error.find("nope"), std::string::npos);
}

TEST(CqAnswerTest, ArityMismatchReported) {
  auto q = ParseConjunctiveQuery("ans(X) :- t(X, Y).");
  ASSERT_TRUE(q.has_value());
  std::string error;
  EXPECT_FALSE(AnswerQuery(*q, SmallDb(), &error).has_value());
  EXPECT_NE(error.find("arity"), std::string::npos);
}

TEST(CqAnswerTest, InvalidQueriesReturnAnError) {
  // Hand-built queries skip the parser; the shared check still rejects
  // them instead of letting them reach the decomposition.
  Database db = SmallDb();
  db.AddTable("z", Table{0, {{}}});
  ConjunctiveQuery no_atoms;
  ConjunctiveQuery empty_atom;
  empty_atom.atoms = {Atom{"z", {}}};
  ConjunctiveQuery unsafe_head;
  unsafe_head.head = {"W"};
  unsafe_head.atoms = {Atom{"r", {"X", "Y"}}};
  const std::pair<const ConjunctiveQuery*, const char*> cases[] = {
      {&no_atoms, "no body atoms"},
      {&empty_atom, "no variables"},
      {&unsafe_head, "head variable W"},
  };
  for (const auto& [q, message] : cases) {
    std::string error;
    EXPECT_FALSE(ValidateConjunctiveQuery(*q, &error));
    EXPECT_NE(error.find(message), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(AnswerQuery(*q, db, &error).has_value()) << message;
    EXPECT_NE(error.find(message), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(BruteForceAnswer(*q, db, &error).has_value()) << message;
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
}

TEST(CqAnswerTest, EmptyAnswerStopsAfterBottomUpPass) {
  // t holds 5 and 6, r's first column 1, 2 and 4: no answer. The GHD has
  // the root {Z, W} (lambda r, four rows) and the leaf {Z} (lambda t).
  // The bottom-up pass empties the root, dropping r's four rows, and the
  // full reduction stops there: t's two rows are not dropped top-down.
  auto q = ParseConjunctiveQuery("ans(W) :- t(Z), r(Z, W).");
  ASSERT_TRUE(q.has_value());
  metrics::Counter& dropped =
      metrics::GetCounter("relation.rows_semijoin_dropped");
  const long before = dropped.Value();
  AnswerStats stats;
  auto result = AnswerQuery(*q, SmallDb(), nullptr, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->schema(), (std::vector<int>{0}));  // W
  EXPECT_TRUE(result->Empty());
  EXPECT_EQ(dropped.Value() - before, 4);
  EXPECT_EQ(stats.intermediate_tuples, 6);  // the two bags, as built
}

TEST(CqAnswerTest, CyclicQueryMatchesBruteForce) {
  auto q = ParseConjunctiveQuery(
      "ans(X, Y, Z) :- r(X, Y), r(Y, Z), r(X, Z).");
  ASSERT_TRUE(q.has_value());
  Database db = SmallDb();
  auto fast = AnswerQuery(*q, db);
  auto slow = BruteForceAnswer(*q, db);
  ASSERT_TRUE(fast.has_value() && slow.has_value());
  EXPECT_EQ(SortedTuples(*fast), SortedTuples(*slow));
  // The triangle (1, 2, 3) and the self-loop (4, 4, 4).
  EXPECT_EQ(SortedTuples(*fast),
            (std::vector<std::vector<int>>{{1, 2, 3}, {4, 4, 4}}));
}

class CqRandomAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(CqRandomAgreementTest, RandomQueriesMatchBruteForce) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  // Random database with three binary tables over a small domain.
  Database db;
  for (const char* name : {"a", "b", "c"}) {
    std::vector<std::vector<int>> rows;
    int count = 4 + rng.UniformInt(10);
    for (int i = 0; i < count; ++i) {
      rows.push_back({rng.UniformInt(5), rng.UniformInt(5)});
    }
    db.AddRows(name, std::move(rows));
  }
  // Random chain-with-a-twist query.
  const char* queries[] = {
      "ans(X, W) :- a(X, Y), b(Y, Z), c(Z, W).",
      "ans(X) :- a(X, Y), b(Y, X).",
      "ans(Y, Z) :- a(X, Y), a(X, Z).",
      "ans() :- a(X, Y), b(Y, Z), c(Z, X).",
      // One table under several repeated-variable patterns in one query.
      "ans(X, Y) :- a(X, X), a(X, Y), a(Y, Z), b(Z, Z).",
      "ans(X, Z) :- a(X, Y), a(Y, Y), a(Y, X), b(Y, Z), b(Z, Z).",
      "ans() :- c(X, X), c(X, Y), c(Y, Y), c(Y, X).",
  };
  for (const char* text : queries) {
    auto q = ParseConjunctiveQuery(text);
    ASSERT_TRUE(q.has_value()) << text;
    auto fast = AnswerQuery(*q, db);
    auto slow = BruteForceAnswer(*q, db);
    ASSERT_TRUE(fast.has_value() && slow.has_value()) << text;
    EXPECT_EQ(SortedTuples(*fast), SortedTuples(*slow))
        << text << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqRandomAgreementTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace hypertree
