#include "csp/decomposition_solving.h"

#include <algorithm>
#include <map>

#include "csp/key_tables.h"
#include "csp/morsel_engine.h"
#include "csp/tree_schedule.h"
#include "hypergraph/acyclicity.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

// Enumerates all assignments of `vars` consistent with the constraints
// whose scope lies inside `vars` (simple backtracking over the bag).
// Constraint c's membership check is a lookup in rows[c], the row table
// of its relation, read straight from the bag assignment at the bag
// positions of its scope.
Relation SolveBag(const Csp& csp, const std::vector<KeyNumbering>& rows,
                  const std::vector<int>& vars) {
  // Constraints fully inside the bag, watched by the last bag variable of
  // their scope (by bag position); cols[c] holds that scope's positions.
  std::vector<int> pos_of_var(csp.NumVariables(), -1);
  for (size_t i = 0; i < vars.size(); ++i) pos_of_var[vars[i]] = static_cast<int>(i);
  std::vector<std::vector<int>> watch(vars.size());
  std::vector<std::vector<int>> cols(csp.NumConstraints());
  for (int c = 0; c < csp.NumConstraints(); ++c) {
    const Constraint& con = csp.GetConstraint(c);
    int last = -1;
    bool inside = true;
    for (int v : con.scope) {
      if (pos_of_var[v] == -1) {
        inside = false;
        break;
      }
      last = std::max(last, pos_of_var[v]);
    }
    if (inside && last >= 0) {
      watch[last].push_back(c);
      for (int v : con.scope) cols[c].push_back(pos_of_var[v]);
    }
  }
  Relation out(vars);
  const int w = static_cast<int>(vars.size());
  // Bag relations run to millions of rows; growing the flat buffer by
  // doubling would copy (and page-fault) gigabytes. When every domain
  // fits in 64/w bits (small CSP domains — the dominant case), one
  // enumeration records each solution as a packed word (cheap to grow)
  // and then unpacks into an exactly-reserved buffer; otherwise a first
  // counting pass of the same odometer sizes the buffer.
  int bits = 1;
  for (int v : vars) {
    const int top = csp.DomainSize(v) - 1;
    while (top > 0 && (top >> bits) != 0) ++bits;
  }
  const bool packable = w > 0 && w * bits <= 64;
  std::vector<uint64_t> packed;     // packed solutions (packable mode)
  std::vector<uint64_t> prefix(w + 1, 0);  // packed assignment per level
  std::vector<int> assignment(w, 0);
  long uncharged = 0;  // membership probes feed no counter
  for (int pass = packable ? 1 : 0; pass < 2; ++pass) {
    long count = 0;
    int level = 0;
    std::vector<int> value(w, -1);
    while (level >= 0) {
      if (level == w) {
        if (packable) {
          packed.push_back(prefix[w]);
        } else if (pass == 0) {
          ++count;
        } else {
          out.AddTuple(assignment);
        }
        --level;
        continue;
      }
      ++value[level];
      if (value[level] >= csp.DomainSize(vars[level])) {
        value[level] = -1;
        --level;
        continue;
      }
      assignment[level] = value[level];
      if (packable) {
        prefix[level + 1] =
            (prefix[level] << bits) | static_cast<uint64_t>(value[level]);
      }
      bool ok = true;
      for (int c : watch[level]) {
        if (rows[c].Find(assignment.data(), cols[c].data(), &uncharged) ==
            kAbsentCode) {
          ok = false;
          break;
        }
      }
      if (ok) ++level;
    }
    if (!packable && pass == 0) out.Reserve(static_cast<int>(count));
  }
  if (packable) {
    out.Reserve(static_cast<int>(packed.size()));
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    for (uint64_t key : packed) {
      for (int i = w - 1; i >= 0; --i) {
        assignment[i] = static_cast<int>(key & mask);
        key >>= bits;
      }
      out.AddRow(assignment.data());
    }
  }
  return out;
}

// One GHD node's relation pi_chi(join of `lambda`). The chain joins the
// relations in lambda order and, before each join, projects away the
// columns that neither `chi` nor a relation still to come holds; the bag
// (schema `chi`, rows and row order) equals that of projecting the full
// join. An empty `lambda` is legal only for an empty `chi` and yields the
// identity relation (one empty tuple). Intermediates follow the memory
// budget of the morsel engine (docs/SOLVING.md); the bag is resident.
Relation MaterializeBag(const std::vector<const Relation*>& lambda,
                        const std::vector<int>& chi, ThreadPool* pool) {
  HT_CHECK_MSG(!lambda.empty() || chi.empty(),
               "GHD node with vertices but empty lambda");
  if (lambda.empty()) {
    // The identity (one empty tuple), so semijoins pass through.
    Relation identity(chi);
    identity.AddTuple({});
    return identity;
  }
  // last[v]: the last lambda position whose schema holds v; chi's
  // variables are read by the final projection, past every position.
  std::map<int, size_t> last;
  for (size_t i = 0; i < lambda.size(); ++i) {
    for (int v : lambda[i]->schema()) last[v] = i;
  }
  for (int v : chi) last[v] = lambda.size();
  // The columns of `schema` still read once lambda[0, next) is joined.
  auto live = [&last](const std::vector<int>& schema, size_t next) {
    std::vector<int> keep;
    for (int v : schema) {
      if (last.at(v) >= next) keep.push_back(v);
    }
    return keep;
  };

  // Projecting early leaves the bag and its row order as they were: the
  // kept columns fix both a row's chi-part and which later rows it
  // matches, so a dropped duplicate row would only have repeated an
  // earlier run of output rows, all of which the final projection drops.
  //
  // Under a memory budget a join output beyond it spills to disk
  // (EngineJoinChunked) and the next projection streams it back chunk by
  // chunk. Each projection's output is resident, like the bag, and a
  // hash-mode projection sizes its dedup table and output by its input's
  // row count, so peak residency is not bounded by the budget alone.
  const Relation& first = *lambda[0];
  if (lambda.size() == 1) return EngineProject(first, chi, pool);
  std::vector<int> keep = live(first.schema(), 1);
  ChunkedRelation acc(keep.size() < first.schema().size()
                          ? EngineProject(first, keep, pool)
                          : first);
  for (size_t i = 1; i < lambda.size(); ++i) {
    acc = EngineJoinChunked(acc, *lambda[i], pool);
    if (i + 1 == lambda.size()) break;
    keep = live(acc.schema(), i + 1);
    if (keep.size() < acc.schema().size()) {
      acc = ChunkedRelation(EngineProjectChunked(acc, keep, pool));
    }
  }
  return EngineProjectChunked(acc, chi, pool);
}

// The relations of the constraint hypergraph's edges: the constraints'
// relations first (used in place), then one domain relation per
// constraint-free variable, built into *domains.
std::vector<const Relation*> EdgeRelations(const Csp& csp, const Hypergraph& h,
                                           std::vector<Relation>* domains) {
  for (int e = csp.NumConstraints(); e < h.NumEdges(); ++e) {
    std::vector<int> vars = h.EdgeVertices(e);
    HT_CHECK(vars.size() == 1);
    Relation r(vars);
    for (int val = 0; val < csp.DomainSize(vars[0]); ++val) r.AddTuple({val});
    domains->push_back(std::move(r));
  }
  std::vector<const Relation*> out;
  for (int c = 0; c < csp.NumConstraints(); ++c) {
    out.push_back(&csp.GetConstraint(c).relation);
  }
  for (const Relation& r : *domains) out.push_back(&r);
  return out;
}

std::optional<std::vector<int>> FinishSolve(const Csp& csp, RelationTree tree,
                                            DecompositionSolveStats* stats,
                                            ThreadPool* pool) {
  if (stats != nullptr) {
    for (const Relation& r : tree.relations) {
      stats->bag_tuples += r.Size();
      stats->max_bag_tuples = std::max(stats->max_bag_tuples, r.Size());
    }
  }
  auto assignment = AcyclicSolve(std::move(tree), pool);
  if (!assignment.has_value()) return std::nullopt;
  std::vector<int> out(csp.NumVariables(), 0);
  for (auto [var, val] : *assignment) out[var] = val;
  HT_CHECK_MSG(csp.IsSolution(out),
               "decomposition solve produced a non-solution");
  return out;
}

}  // namespace

RelationTree BuildRelationTreeFromTd(const Csp& csp,
                                     const TreeDecomposition& td,
                                     ThreadPool* pool) {
  HT_CHECK(td.NumGraphVertices() == csp.NumVariables());
  // Each constraint's rows are numbered once, up front; the bag builds
  // only read the tables.
  std::vector<KeyNumbering> rows;
  rows.reserve(csp.NumConstraints());
  for (const Constraint& c : csp.constraints()) {
    rows.push_back(NumberRows(c.relation));
  }
  RelationTree tree;
  tree.relations.resize(td.NumNodes());
  // The bags are independent subproblems: solve them in parallel. Each
  // visit writes only its own slot, so results are schedule-independent.
  ParallelFor(td.NumNodes(), pool, [&tree, &csp, &rows, &td](int p) {
    tree.relations[p] = SolveBag(csp, rows, td.Bag(p).ToVector());
  });
  tree.shape = TreeShape(td.NumNodes(), td.TreeEdges(), /*root=*/0);
  return tree;
}

RelationTree BuildRelationTreeFromGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    ThreadPool* pool) {
  HT_CHECK(ghd.td().NumGraphVertices() == csp.NumVariables());
  // Work on a completed copy so every constraint participates in some
  // node's join (Lemma 2 keeps the width unchanged).
  Hypergraph h = csp.ConstraintHypergraph();
  GeneralizedHypertreeDecomposition complete = ghd;
  complete.MakeComplete(h);
  std::vector<Relation> domains;
  return BuildRelationTreeFromGhd(complete, EdgeRelations(csp, h, &domains),
                                  pool);
}

RelationTree BuildRelationTreeFromGhd(
    const GeneralizedHypertreeDecomposition& complete,
    const std::vector<const Relation*>& edge_relations, ThreadPool* pool) {
  RelationTree tree;
  const int m = complete.NumNodes();
  tree.relations.resize(m);
  // Per-node bag joins are independent; fan them out over the pool. The
  // bags only read the edge relations, so they share them.
  ParallelFor(m, pool, [&complete, &edge_relations, &tree, pool](int p) {
    std::vector<const Relation*> lambda;
    for (int e : complete.Lambda(p)) lambda.push_back(edge_relations[e]);
    tree.relations[p] =
        MaterializeBag(lambda, complete.td().Bag(p).ToVector(), pool);
  });
  tree.shape = TreeShape(m, complete.td().TreeEdges(), /*root=*/0);
  return tree;
}

RelationTree BuildRelationTreeFromJoinTree(const Csp& csp) {
  Hypergraph h = csp.ConstraintHypergraph();
  std::optional<JoinTree> jt = BuildJoinTree(h);
  HT_CHECK_MSG(jt.has_value(), "constraint hypergraph is not alpha-acyclic");
  std::vector<Relation> domains;
  RelationTree tree;
  for (const Relation* r : EdgeRelations(csp, h, &domains)) {
    tree.relations.push_back(*r);
  }
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < h.NumEdges(); ++e) {
    if (jt->parent[e] != -1) edges.emplace_back(e, jt->parent[e]);
  }
  tree.shape = TreeShape(h.NumEdges(), edges, jt->root);
  return tree;
}

std::optional<std::vector<int>> SolveViaTreeDecomposition(
    const Csp& csp, const TreeDecomposition& td,
    DecompositionSolveStats* stats, ThreadPool* pool) {
  return FinishSolve(csp, BuildRelationTreeFromTd(csp, td, pool), stats, pool);
}

std::optional<std::vector<int>> SolveViaGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    DecompositionSolveStats* stats, ThreadPool* pool) {
  return FinishSolve(csp, BuildRelationTreeFromGhd(csp, ghd, pool), stats,
                     pool);
}

}  // namespace hypertree
