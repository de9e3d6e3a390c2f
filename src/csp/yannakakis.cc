#include "csp/yannakakis.h"

#include <algorithm>

#include "csp/decomposition_solving.h"
#include "csp/morsel_engine.h"
#include "csp/tree_schedule.h"
#include "util/check.h"

namespace hypertree {

bool FullyReduce(RelationTree* tree, ThreadPool* pool) {
  const TreeShape& shape = tree->shape;
  std::vector<Relation>& rel = tree->relations;
  HT_CHECK_EQ(shape.NumNodes(), static_cast<int>(rel.size()));
  if (rel.empty()) return true;
  // Bottom-up: each node filters itself against its fully reduced
  // children (in place, ascending child id). Every visit runs to
  // completion even when some node empties: the filters are
  // deterministic, so the relation contents and the kernel's metrics
  // counters stay bit-identical for any thread count, SAT or UNSAT.
  // Within-bag morsel parallelism composes with the across-bag level
  // loop: EngineSemijoinInPlace cuts the probe side into morsels and
  // ParallelFor lets idle pool threads steal them, so one huge bag no
  // longer serializes the whole pass. Counter totals and survivors are
  // schedule-independent (see morsel.h), keeping the pass deterministic.
  RunTreeBottomUp(shape, pool, [&shape, &rel, pool](int node) {
    for (int c : shape.children(node)) {
      EngineSemijoinInPlace(&rel[node], rel[c], pool);
    }
  });
  if (rel[shape.root()].Empty()) return false;
  // Top-down: each node filters itself against its already reduced
  // parent.
  RunTreeTopDown(shape, pool, [&shape, &rel, pool](int node) {
    if (shape.parent(node) != -1) {
      EngineSemijoinInPlace(&rel[node], rel[shape.parent(node)], pool);
    }
  });
  return true;
}

std::optional<std::unordered_map<int, int>> AcyclicSolve(RelationTree tree,
                                                         ThreadPool* pool) {
  if (!FullyReduce(&tree, pool)) return std::nullopt;
  // Extraction: pick any root tuple, then for each child a tuple agreeing
  // with the values fixed so far (guaranteed to exist after reduction).
  // Fixed values live in a dense array over variable ids: the scan below
  // touches every row element of every relation in the worst case, and a
  // hash lookup per element dominates the whole pass.
  int max_var = -1;
  for (const Relation& rel : tree.relations) {
    for (int v : rel.schema()) max_var = std::max(max_var, v);
  }
  std::vector<int> fixed_val(max_var + 1, 0);
  std::vector<char> is_fixed(max_var + 1, 0);
  std::unordered_map<int, int> assignment;
  for (int node : tree.shape.order()) {
    const Relation& rel = tree.relations[node];
    const std::vector<int>& schema = rel.schema();
    const int arity = rel.Arity();
    const int* chosen = nullptr;
    for (int t = 0; t < rel.Size() && chosen == nullptr; ++t) {
      const int* row = rel.Row(t);
      bool ok = true;
      for (int i = 0; i < arity && ok; ++i) {
        const int v = schema[i];
        if (is_fixed[v] && fixed_val[v] != row[i]) ok = false;
      }
      if (ok) chosen = row;
    }
    HT_CHECK_MSG(chosen != nullptr,
                 "full reduction must leave a consistent tuple");
    for (int i = 0; i < arity; ++i) {
      const int v = schema[i];
      is_fixed[v] = 1;
      fixed_val[v] = chosen[i];
      assignment[v] = chosen[i];
    }
  }
  return assignment;
}

std::optional<std::vector<int>> SolveAcyclicCsp(const Csp& csp,
                                                ThreadPool* pool) {
  auto assignment = AcyclicSolve(BuildRelationTreeFromJoinTree(csp), pool);
  if (!assignment.has_value()) return std::nullopt;
  std::vector<int> out(csp.NumVariables(), 0);
  for (auto [var, val] : *assignment) out[var] = val;
  return out;
}

}  // namespace hypertree
