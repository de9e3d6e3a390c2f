#include "cq/answer.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "csp/decomposition_solving.h"
#include "csp/morsel_engine.h"
#include "csp/tree_schedule.h"
#include "csp/yannakakis.h"
#include "ghd/ghw_from_ordering.h"
#include "ordering/heuristics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

// An atom resolved against its table. rep[i] is the first column holding
// column i's variable; `schema` lists the distinct variable ids in
// first-occurrence order, bound by the columns `keep_cols`.
struct ResolvedAtom {
  const Table* table = nullptr;
  std::vector<int> rep;
  std::vector<int> schema;
  std::vector<int> keep_cols;

  // True when the row's repeated-variable columns agree.
  bool Matches(const std::vector<int>& row) const {
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i] != row[rep[i]]) return false;
    }
    return true;
  }
};

// Looks the atom's table up and checks its arity.
bool ResolveAtom(const Atom& atom, const std::map<std::string, int>& var_id,
                 const Database& db, ResolvedAtom* out, std::string* error) {
  out->table = db.GetTable(atom.relation);
  if (out->table == nullptr) {
    SetError(error, "unknown relation: " + atom.relation);
    return false;
  }
  if (out->table->arity != static_cast<int>(atom.vars.size())) {
    SetError(error, "arity mismatch for " + atom.relation);
    return false;
  }
  std::map<int, int> first_col;
  out->rep.resize(atom.vars.size());
  for (size_t i = 0; i < atom.vars.size(); ++i) {
    int v = var_id.at(atom.vars[i]);
    auto it = first_col.find(v);
    if (it == first_col.end()) {
      first_col[v] = static_cast<int>(i);
      out->rep[i] = static_cast<int>(i);
      out->schema.push_back(v);
      out->keep_cols.push_back(static_cast<int>(i));
    } else {
      out->rep[i] = it->second;
    }
  }
  return true;
}

// Binds one atom for BruteForceAnswer: rows filtered for repeated-variable
// equality, then deduplicated one at a time through a std::set (set
// semantics: repeated table rows must not repeat answers; first
// occurrence wins the row order). Kept apart from AnswerQuery's shared
// binding, and off the engine's tables, so the reference stays
// independent of the path it checks.
bool BindAtom(const Atom& atom, const std::map<std::string, int>& var_id,
              const Database& db, Relation* out, std::string* error) {
  ResolvedAtom ra;
  if (!ResolveAtom(atom, var_id, db, &ra, error)) return false;
  Relation r(ra.schema);
  std::set<std::vector<int>> seen;
  std::vector<int> tuple;
  for (const auto& row : ra.table->rows) {
    if (!ra.Matches(row)) continue;
    tuple.clear();
    for (int c : ra.keep_cols) tuple.push_back(row[c]);
    if (seen.insert(tuple).second) r.AddRow(tuple.data());
  }
  *out = std::move(r);
  return true;
}

// Binds every atom of `q`. Atoms that read one table under one
// repeated-variable pattern share one binding: a filter pass over the
// table, deduplicated on the kept columns by EngineProject (first
// occurrence wins, as in BindAtom), whose rows each atom then
// takes under its own variable ids.
bool BindAtoms(const ConjunctiveQuery& q,
               const std::map<std::string, int>& var_id, const Database& db,
               ThreadPool* pool, std::vector<Relation>* bound,
               std::string* error) {
  // Keyed by (table, rep); the schema is the kept column positions.
  std::map<std::pair<std::string, std::vector<int>>, Relation> shared;
  bound->clear();
  for (const Atom& atom : q.atoms) {
    ResolvedAtom ra;
    if (!ResolveAtom(atom, var_id, db, &ra, error)) return false;
    auto [it, fresh] = shared.try_emplace({atom.relation, ra.rep});
    if (fresh) {
      std::vector<int> columns(ra.rep.size());
      std::iota(columns.begin(), columns.end(), 0);
      Relation filtered(columns);
      filtered.Reserve(static_cast<int>(ra.table->rows.size()));
      for (const auto& row : ra.table->rows) {
        if (ra.Matches(row)) filtered.AddRow(row.data());
      }
      it->second = EngineProject(filtered, ra.keep_cols, pool);
    }
    const Relation& rows = it->second;
    Relation r(ra.schema);
    r.Reserve(rows.Size());
    for (int i = 0; i < rows.Size(); ++i) r.AddRow(rows.Row(i));
    bound->push_back(std::move(r));
  }
  return true;
}

}  // namespace

std::optional<Relation> AnswerQuery(const ConjunctiveQuery& q,
                                    const Database& db, std::string* error,
                                    AnswerStats* stats, ThreadPool* pool) {
  if (!ValidateConjunctiveQuery(q, error)) return std::nullopt;
  std::vector<std::string> vars = q.Variables();
  std::map<std::string, int> var_id;
  for (size_t i = 0; i < vars.size(); ++i) var_id[vars[i]] = static_cast<int>(i);
  std::vector<int> head_ids;
  for (const std::string& v : q.head) head_ids.push_back(var_id[v]);
  {
    std::vector<int> sorted = head_ids;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      SetError(error, "repeated head variables are not supported");
      return std::nullopt;
    }
  }

  std::vector<Relation> bound;
  if (!BindAtoms(q, var_id, db, pool, &bound, error)) return std::nullopt;

  // Decompose the query hypergraph (min-fill + exact covers) and complete
  // it so every atom is enforced at some node.
  Hypergraph h = q.QueryHypergraph();
  GhwEvaluator eval(h);
  Rng rng(7);
  EliminationOrdering sigma = MinFillOrdering(eval.primal(), &rng);
  GeneralizedHypertreeDecomposition ghd =
      eval.BuildGhd(sigma, CoverMode::kExact);
  ghd.MakeComplete(h);
  if (stats != nullptr) stats->decomposition_width = ghd.Width();

  // Node relations pi_chi(join of lambda atoms), the same builder as GHD
  // solving; then the full reduction.
  std::vector<const Relation*> edge_relations;
  for (const Relation& r : bound) edge_relations.push_back(&r);
  RelationTree tree = BuildRelationTreeFromGhd(ghd, edge_relations, pool);
  const TreeShape& shape = tree.shape;
  const int m = shape.NumNodes();
  long intermediate = 0;
  for (const Relation& r : tree.relations) intermediate += r.Size();
  if (!FullyReduce(&tree, pool)) {
    // No consistent combination: the answer is empty, with nothing to
    // enumerate.
    if (stats != nullptr) stats->intermediate_tuples += intermediate;
    return Relation(head_ids);
  }
  const std::vector<Relation>& rel = tree.relations;

  // Head variables contained in each subtree.
  Bitset head_bits(h.NumVertices());
  for (int v : head_ids) head_bits.Set(v);
  std::vector<Bitset> sub_head(m, Bitset(h.NumVertices()));
  for (size_t i = shape.order().size(); i-- > 0;) {
    const int node = shape.order()[i];
    sub_head[node] = ghd.td().Bag(node) & head_bits;
    for (int c : shape.children(node)) sub_head[node] |= sub_head[c];
  }

  // Bottom-up join with projection onto connector + subtree-head vars
  // (children finish before their parent joins them, so the nodes of one
  // depth level run concurrently). Per-node join sizes go to slots and
  // are summed afterwards, so the stats are deterministic under any
  // schedule.
  std::vector<Relation> answers(m);
  std::vector<long> join_tuples(m, 0);
  RunTreeBottomUp(shape, pool,
                  [&shape, &rel, &answers, &join_tuples, &sub_head, &ghd,
                   pool](int node) {
    Relation acc = rel[node];
    for (int c : shape.children(node)) {
      acc = EngineJoin(acc, answers[c], pool);
      join_tuples[node] += acc.Size();
    }
    Bitset keep = sub_head[node];
    if (shape.parent(node) != -1) {
      keep |= ghd.td().Bag(node) & ghd.td().Bag(shape.parent(node));
    }
    // Projection: keep only schema vars that are in `keep`.
    std::vector<int> proj;
    for (int v : acc.schema()) {
      if (keep.Test(v)) proj.push_back(v);
    }
    answers[node] = acc.Project(proj);
  });
  if (stats != nullptr) {
    for (long t : join_tuples) intermediate += t;
    stats->intermediate_tuples += intermediate;
  }

  // A Boolean query projects onto the empty schema: one empty tuple
  // (true) or none (false).
  return answers[shape.root()].Project(head_ids);
}

std::optional<Relation> BruteForceAnswer(const ConjunctiveQuery& q,
                                         const Database& db,
                                         std::string* error) {
  if (!ValidateConjunctiveQuery(q, error)) return std::nullopt;
  std::vector<std::string> vars = q.Variables();
  std::map<std::string, int> var_id;
  for (size_t i = 0; i < vars.size(); ++i) var_id[vars[i]] = static_cast<int>(i);
  Relation acc;
  bool first = true;
  for (const Atom& atom : q.atoms) {
    Relation r;
    if (!BindAtom(atom, var_id, db, &r, error)) return std::nullopt;
    acc = first ? std::move(r) : acc.Join(r);
    first = false;
  }
  std::vector<int> head_ids;
  for (const std::string& v : q.head) head_ids.push_back(var_id[v]);
  if (head_ids.empty()) {
    Relation boolean(std::vector<int>{});
    if (!acc.Empty()) boolean.AddTuple({});
    return boolean;
  }
  return acc.Project(head_ids);
}

}  // namespace hypertree
