// Fuzz harness for the conjunctive-query parser and the answering
// pipeline behind it. Any byte string must parse or be rejected with an
// error. An accepted query must pass the shared ValidateConjunctiveQuery
// check and give a query hypergraph without empty edges. A query of at
// most kMaxAtoms atoms is then answered over a small fixed database:
// AnswerQuery must return a relation or an error, never abort, and must
// agree with BruteForceAnswer on the sorted tuples whenever both succeed.
// Table "w" holds negative and 2^30 values, whose keys do not pack into
// one word, so queries over it run the engine's numbered key codes.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cq/answer.h"
#include "cq/database.h"
#include "cq/query.h"
#include "util/check.h"

namespace {

// Keeps the brute-force reference (a full join of every atom) small.
constexpr size_t kMaxAtoms = 4;

const hypertree::Database& FixedDatabase() {
  static const hypertree::Database db = [] {
    hypertree::Database d;
    d.AddRows("r", {{1, 2}, {1, 3}, {2, 3}, {4, 4}});
    d.AddRows("s", {{2, 5}, {3, 5}, {3, 6}, {4, 4}});
    d.AddRows("t", {{5}, {6}});
    constexpr int kWide = 1 << 30;
    d.AddRows("w", {{-1, kWide}, {kWide, -5}, {-5, -1}, {kWide, kWide},
                    {-1, -1}, {2, -5}});
    return d;
  }();
  return db;
}

std::vector<std::vector<int>> SortedTuples(const hypertree::Relation& r) {
  std::vector<std::vector<int>> tuples = r.ToTuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (size_t{1} << 16)) return 0;  // parsing is linear; cap the cost
  std::string text(reinterpret_cast<const char*>(data), size);
  std::string error;
  auto q = hypertree::ParseConjunctiveQuery(text, &error);
  if (!q.has_value()) return 0;
  HT_CHECK(hypertree::ValidateConjunctiveQuery(*q, &error))
      << "accepted query fails the shared check: " << error;
  hypertree::Hypergraph h = q->QueryHypergraph();
  for (int e = 0; e < h.NumEdges(); ++e) {
    HT_CHECK(!h.EdgeVertices(e).empty()) << "empty hyperedge " << e;
  }
  if (q->atoms.size() > kMaxAtoms) return 0;

  const hypertree::Database& db = FixedDatabase();
  std::string fast_error;
  auto fast = hypertree::AnswerQuery(*q, db, &fast_error);
  HT_CHECK(fast.has_value() || !fast_error.empty())
      << "AnswerQuery failed without an error";
  std::string slow_error;
  auto slow = hypertree::BruteForceAnswer(*q, db, &slow_error);
  if (fast.has_value() && slow.has_value()) {
    HT_CHECK(fast->schema() == slow->schema()) << "schemas differ: " << text;
    HT_CHECK(SortedTuples(*fast) == SortedTuples(*slow))
        << "AnswerQuery disagrees with BruteForceAnswer: " << text;
  }
  return 0;
}
