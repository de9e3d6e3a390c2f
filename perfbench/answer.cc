// The `answer` workload: decompose -> bag materialization -> Yannakakis
// -> answers or counts, on a ThreadPool of 2. Two kinds of operation:
// cyclic conjunctive queries over a seeded, skewed database (AnswerQuery)
// and planted grid and circuit CSPs solved and counted through a min-fill
// GHD. A quarter of the operations run under a tight memory budget so
// joins spill and semijoins grace-partition. See README.md.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common.h"
#include "cq/answer.h"
#include "cq/database.h"
#include "cq/query.h"
#include "csp/backtracking.h"
#include "csp/counting.h"
#include "csp/decomposition_solving.h"
#include "csp/generators.h"
#include "csp/morsel.h"
#include "csp/yannakakis.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "ordering/heuristics.h"
#include "td/tree_decomposition.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using hypertree::ConjunctiveQuery;
using hypertree::Csp;
using hypertree::Database;
using hypertree::GhwEvaluator;
using hypertree::Hypergraph;
using hypertree::Relation;
using hypertree::Rng;

namespace {

// The tight budget of the spill share (bytes).
constexpr long long kSpillBudget = 16 << 10;
// Of every kSpillEvery operations of the stream, one runs under the
// tight budget.
constexpr int kSpillEvery = 4;
// Tie-break seed of the min-fill orderings: fixed, so every CSP shape
// gets the same decomposition whatever the workload seed.
constexpr uint64_t kOrderingSeed = 1;
// Seed of the database's edges and of the CSPs' constraint relations:
// fixed, so every run joins the same data; the workload seed relabels
// the nodes, shuffles the table rows and orders the stream.
constexpr uint64_t kDataSeed = 1;
// Nodes in each edge table, and the value range of the wide tables.
constexpr int kNodes = 3000;
constexpr int kEdges = 9000;
constexpr int kWideRange = 1 << 30;
// CSPs with at most this many variables get a backtracking reference.
constexpr int kBacktrackMaxVars = 30;
constexpr long kBacktrackMaxNodes = 2000000;

const char* const kQueries[] = {
    "ans(A, B, C) :- E(A, B), E(B, C), E(C, A).",
    "ans(A, C) :- E(A, B), E(B, C), E(C, D), E(D, A).",
    "ans(A) :- E(A, B), E(B, C), E(C, A), E(A, D), E(D, F), E(F, A).",
    "ans(A, C) :- E(A, B), E(B, C), E(C, D), E(D, A), E(B, D).",
};

// Order-sensitive hash of a relation's schema and rows: the determinism
// check for repeated and spilled operations.
uint64_t RelationHash(const Relation& r) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](int v) {
    h = hypertree::SplitMix64(h ^ static_cast<uint32_t>(v));
  };
  for (int v : r.schema()) mix(v);
  mix(-1);
  for (int i = 0; i < r.Size(); ++i) {
    const int* row = r.Row(i);
    for (int c = 0; c < r.Arity(); ++c) mix(row[c]);
  }
  return h;
}

// The same hash over the rows in sorted order, for comparing with a
// reference computed by another route.
uint64_t SortedHash(const Relation& r) {
  Relation sorted(r.schema());
  std::vector<std::vector<int>> tuples = r.ToTuples();
  std::sort(tuples.begin(), tuples.end());
  for (const auto& t : tuples) sorted.AddTuple(t);
  return RelationHash(sorted);
}

// A skewed edge table over node ids [0, kNodes): endpoints drawn from
// `data` with density falling off towards high ids, duplicates and
// self-loops removed.
std::vector<std::vector<int>> SkewedEdges(Rng* data) {
  std::vector<std::vector<int>> rows;
  auto skewed = [data] {
    double u = data->UniformDouble();
    return static_cast<int>(u * u * kNodes);
  };
  while (static_cast<int>(rows.size()) < kEdges * 11 / 10) {
    int a = skewed();
    int b = data->UniformInt(kNodes);
    if (a != b) rows.push_back({a, b});
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  data->Shuffle(&rows);
  rows.resize(std::min<size_t>(rows.size(), kEdges));
  return rows;
}

// `edges` under a seeded relabeling of the nodes, in a seeded row order.
// The dense table permutes [0, kNodes), so its joins take the dense
// modes; the wide one maps the nodes onto distinct values spread over
// 2^30, so its joins take the packed-hash mode.
hypertree::Table Relabeled(const std::vector<std::vector<int>>& edges,
                           bool wide, Rng* rng) {
  std::vector<int> label(kNodes);
  if (wide) {
    std::unordered_set<int> used;
    for (int& l : label) {
      do {
        l = rng->UniformInt(kWideRange);
      } while (!used.insert(l).second);
    }
  } else {
    for (int v = 0; v < kNodes; ++v) label[v] = v;
    rng->Shuffle(&label);
  }
  hypertree::Table t;
  t.arity = 2;
  for (const auto& e : edges) t.rows.push_back({label[e[0]], label[e[1]]});
  rng->Shuffle(&t.rows);
  return t;
}

enum Kind { kCq = 0, kCsp = 1, kCqSpill = 2, kCspSpill = 3 };

struct CqItem {
  std::string name;
  ConjunctiveQuery query;
};

struct CspItem {
  std::string name;
  Csp csp;
  Hypergraph h;
};

// What one operation reports, and what a repeat must reproduce.
struct Result {
  long long count = 0;   // answer rows / solutions
  uint64_t hash = 0;     // answer relation hash (CQs)
  long intermediate = 0;
  int width = 0;
  double latency_ms = 0;  // in library calls; the checks excluded
};

class AnswerWorkload : public Workload {
 public:
  explicit AnswerWorkload(const Options&) {}

  bool Setup(uint64_t seed, std::string* error) override {
    Rng rng(seed);
    Rng data(kDataSeed);
    pool_ = std::make_unique<hypertree::ThreadPool>(kProgramThreads);
    std::vector<std::vector<int>> edges = SkewedEdges(&data);
    db_.AddTable("en", Relabeled(edges, /*wide=*/false, &rng));
    db_.AddTable("ew", Relabeled(edges, /*wide=*/true, &rng));
    for (const char* text : kQueries) {
      for (const char* table : {"en", "ew"}) {
        std::string t = text;
        for (size_t p = t.find("E("); p != std::string::npos;
             p = t.find("E(", p)) {
          t.replace(p, 1, table);
        }
        auto q = hypertree::ParseConjunctiveQuery(t, error);
        if (!q.has_value()) return false;
        cqs_.push_back({table + std::string(":") + text, std::move(*q)});
      }
    }
    auto add_csp = [&](const std::string& name, Hypergraph h, int domain,
                       double tightness) {
      Csp csp = hypertree::RandomCspFromHypergraph(h, domain, tightness,
                                                   /*plant_solution=*/true,
                                                   data.Next());
      csps_.push_back({name, std::move(csp), std::move(h)});
    };
    // CSP shapes, constraint relations and planted solutions are fixed
    // (the circuit structure seeds were picked for operations of a few
    // to a few tens of ms).
    for (int copy = 0; copy < 2; ++copy) {
      add_csp("grid2d_5_d6", hypertree::Grid2DHypergraph(5), 6, 0.5);
      add_csp("grid2d_4_d10", hypertree::Grid2DHypergraph(4), 10, 0.5);
    }
    for (uint64_t shape : {2, 3, 6, 8}) {
      add_csp("circuit_8_30_d3_s" + std::to_string(shape),
              hypertree::CircuitHypergraph(8, 30, shape), 3, 0.5);
    }
    add_csp("circuit_6_30_d4_s7", hypertree::CircuitHypergraph(6, 30, 7), 4,
            0.5);
    // Small enough for a backtracking reference.
    add_csp("grid2d_4_d3", hypertree::Grid2DHypergraph(4), 3, 0.35);
    add_csp("circuit_4_12_d3_s1", hypertree::CircuitHypergraph(4, 12, 1), 3,
            0.35);
    // The stream: every item resident kSpillEvery - 1 times and once
    // under the tight budget per pass, in a fresh seeded order each pass.
    stream_.clear();
    int items = static_cast<int>(cqs_.size() + csps_.size());
    for (int pass = 0; pass < 64; ++pass) {
      std::vector<std::pair<int, bool>> entries;
      for (int item = 0; item < items; ++item) {
        for (int k = 0; k < kSpillEvery; ++k) {
          entries.push_back({item, k == 0});
        }
      }
      rng.Shuffle(&entries);
      stream_.insert(stream_.end(), entries.begin(), entries.end());
    }
    // Warm-up: every item once, resident.
    Tracer off;
    for (int item = 0; item < items; ++item) {
      Result r;
      if (!RunItem(item, false, &off, &r, error)) return false;
    }
    results_.assign(items, {});
    return true;
  }

  bool References(std::string* error) override {
    references_.clear();
    for (const CqItem& cq : cqs_) {
      auto answer = hypertree::BruteForceAnswer(cq.query, db_, error);
      if (!answer.has_value()) return false;
      Result ref;
      ref.count = answer->Size();
      ref.hash = SortedHash(*answer);
      references_.push_back(ref);
    }
    for (const CspItem& item : csps_) {
      Result ref;
      hypertree::BacktrackStats stats;
      bool backtracked = false;
      if (item.csp.NumVariables() <= kBacktrackMaxVars) {
        ref.count = hypertree::BacktrackingCountSolutions(
            item.csp, kBacktrackMaxNodes, &stats);
        backtracked = !stats.aborted;
      }
      if (!backtracked) {
        // Tree-decomposition route over the min-fill ordering.
        GhwEvaluator eval(item.h);
        Rng rng(kOrderingSeed);
        auto sigma = hypertree::MinFillOrdering(eval.primal(), &rng);
        auto td = hypertree::TreeDecompositionFromOrdering(eval.primal(), sigma);
        ref.count = hypertree::CountViaTreeDecomposition(item.csp, td);
      }
      references_.push_back(ref);
    }
    return true;
  }

  bool CountedPass(Digest* digest, std::string* error) override {
    Tracer off;
    int items = static_cast<int>(references_.size());
    for (int item = 0; item < items; ++item) {
      for (bool spill : {false, true}) {
        Counters before = SnapshotCounters();
        Result r;
        Relation answer;
        if (!RunItem(item, spill, &off, &r, error, &answer)) return false;
        Counters after = SnapshotCounters();
        const Result& ref = references_[item];
        bool is_cq = item < static_cast<int>(cqs_.size());
        if (r.count != ref.count || (is_cq && SortedHash(answer) != ref.hash)) {
          *error = "answer differs from the reference on " + Name(item) +
                   (spill ? " (spill)" : "");
          return false;
        }
        if (spill) {
          // Spilled results must equal resident results exactly.
          if (r.hash != results_[item].hash ||
              r.intermediate != results_[item].intermediate) {
            *error = "spilled result differs from resident on " + Name(item);
            return false;
          }
        } else {
          results_[item] = r;
          if (is_cq) {
            pass_intermediate_ += r.intermediate;
            pass_answer_rows_ += r.count;
          }
        }
        digest->Add(Name(item));
        digest->Add(spill ? 1 : 0);
        digest->Add(r.count);
        digest->Add(static_cast<long long>(r.hash));
        digest->Add(r.intermediate);
        digest->Add(r.width);
        for (const char* counter :
             {"relation.rows_joined", "relation.rows_semijoin_dropped",
              "relation.probe_collisions", "relation.spill.partitions",
              "relation.spill.bytes"}) {
          digest->Add(Delta(before, after, counter));
        }
      }
    }
    return true;
  }

  OpOutcome Run(long i, Tracer* tracer) override {
    auto [item, spill] = stream_[i % stream_.size()];
    bool is_cq = item < static_cast<int>(cqs_.size());
    Result r;
    std::string error;
    bool ok = RunItem(item, spill, tracer, &r, &error);
    const Result& want = results_[item];
    if (ok && (r.count != want.count || r.hash != want.hash ||
               r.intermediate != want.intermediate)) {
      ok = false;
      error = "result differs from the counted pass";
    }
    OpOutcome out;
    out.ok = ok;
    out.kind = is_cq ? (spill ? kCqSpill : kCq) : (spill ? kCspSpill : kCsp);
    out.latency_ms = r.latency_ms;
    if (!ok) out.error = Name(item) + ": " + error;
    return out;
  }

  std::vector<std::string> KindNames() const override {
    return {"cq", "csp", "cq_spill", "csp_spill"};
  }
  bool IsHitKind(int kind) const override {
    return kind == kCq || kind == kCsp;
  }

  void PassMetrics(Metrics* out) const override {
    (*out)["cq.intermediate_tuples"] = static_cast<double>(pass_intermediate_);
    (*out)["cq.answer_rows"] = static_cast<double>(pass_answer_rows_);
  }

  void WindowMetrics(const Tracer& tracer, Metrics* out) const override {
    for (const char* name :
         {"csp.materialize", "csp.reduce", "csp.count", "cq.answer"}) {
      long calls = 0;
      double ms = tracer.TotalMs(name, &calls);
      if (calls > 0) (*out)[std::string(name) + "_ms"] = ms / calls;
    }
  }

  void Shutdown() override { pool_.reset(); }

 private:
  std::string Name(int item) const {
    int n = static_cast<int>(cqs_.size());
    return item < n ? cqs_[item].name : csps_[item - n].name;
  }

  // One operation on `item`, resident or under the tight budget. A CQ's
  // answer relation is moved to `answer` when it is non-null.
  bool RunItem(int item, bool spill, Tracer* tracer, Result* r,
               std::string* error, Relation* answer = nullptr) {
    if (spill) hypertree::SetMemoryBudget(kSpillBudget);
    bool ok = item < static_cast<int>(cqs_.size())
                  ? AnswerCq(cqs_[item], tracer, r, error, answer)
                  : SolveCsp(csps_[item - cqs_.size()], tracer, r, error);
    if (spill) hypertree::SetMemoryBudget(0);
    return ok;
  }

  bool AnswerCq(const CqItem& item, Tracer* tracer, Result* r,
                std::string* error, Relation* keep) {
    hypertree::AnswerStats stats;
    std::optional<Relation> answer;
    CallClock clock;
    {
      auto span = tracer->Open("cq.answer");
      auto timed = clock.Time();
      answer = hypertree::AnswerQuery(item.query, db_, error, &stats,
                                      pool_.get());
    }
    r->latency_ms = clock.ms();
    if (!answer.has_value()) return false;
    r->count = answer->Size();
    r->hash = RelationHash(*answer);
    r->intermediate = stats.intermediate_tuples;
    r->width = stats.decomposition_width;
    if (keep != nullptr) *keep = std::move(*answer);
    return true;
  }

  bool SolveCsp(const CspItem& item, Tracer* tracer, Result* r,
                std::string* error) {
    std::optional<hypertree::GeneralizedHypertreeDecomposition> ghd;
    CallClock clock;
    {
      auto span = tracer->Open("ghd.min_fill");
      auto timed = clock.Time();
      GhwEvaluator eval(item.h);
      Rng rng(kOrderingSeed);
      auto sigma = hypertree::MinFillOrdering(eval.primal(), &rng);
      ghd = eval.BuildGhd(sigma, hypertree::CoverMode::kExact);
    }
    r->width = ghd->Width();
    hypertree::RelationTree tree;
    {
      auto span = tracer->Open("csp.materialize");
      auto timed = clock.Time();
      tree = hypertree::BuildRelationTreeFromGhd(item.csp, *ghd, pool_.get());
    }
    long bag_rows = 0;
    for (const Relation& rel : tree.relations) bag_rows += rel.Size();
    r->intermediate = bag_rows;
    {
      auto span = tracer->Open("csp.count");
      auto timed = clock.Time();
      r->count = hypertree::CountRelationTree(tree, pool_.get());
    }
    std::optional<std::unordered_map<int, int>> solution;
    {
      auto span = tracer->Open("csp.reduce");
      auto timed = clock.Time();
      solution = hypertree::AcyclicSolve(std::move(tree), pool_.get());
    }
    r->latency_ms = clock.ms();
    if (!solution.has_value()) {
      *error = "planted CSP reported unsatisfiable: " + item.name;
      return false;
    }
    std::vector<int> assignment(item.csp.NumVariables(), 0);
    for (const auto& [var, value] : *solution) assignment[var] = value;
    if (!item.csp.IsSolution(assignment)) {
      *error = "Yannakakis assignment violates a constraint: " + item.name;
      return false;
    }
    r->hash = static_cast<uint64_t>(r->count);
    return true;
  }

  std::unique_ptr<hypertree::ThreadPool> pool_;
  Database db_;
  std::vector<CqItem> cqs_;
  std::vector<CspItem> csps_;
  std::vector<std::pair<int, bool>> stream_;
  std::vector<Result> references_;
  std::vector<Result> results_;
  long pass_intermediate_ = 0;
  long pass_answer_rows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAnswerWorkload(const Options& options) {
  return std::make_unique<AnswerWorkload>(options);
}

}  // namespace perfbench
