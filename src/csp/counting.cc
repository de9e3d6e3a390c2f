#include "csp/counting.h"

#include <vector>

#include "csp/decomposition_solving.h"
#include "csp/morsel_engine.h"
#include "csp/tree_schedule.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

long long CountRelationTree(const RelationTree& tree, ThreadPool* pool) {
  const TreeShape& shape = tree.shape;
  const int m = static_cast<int>(tree.relations.size());
  HT_CHECK_EQ(shape.NumNodes(), m);
  if (m == 0) return 1;  // the empty join has exactly one (empty) answer

  // weight[p][t] = number of consistent completions of tuple t within the
  // subtree of p. Children are aggregated before their parent runs, so
  // the nodes of one depth level can be processed in parallel.
  std::vector<std::vector<long long>> weight(m);
  RunTreeBottomUp(shape, pool, [&tree, &shape, &weight, pool](int p) {
    weight[p].assign(tree.relations[p].Size(), 1);
    for (int c : shape.children(p)) {
      EngineWeightedSemijoin(tree.relations[p], &weight[p], tree.relations[c],
                             weight[c], pool);
    }
  });
  long long total = 0;
  for (long long w : weight[shape.root()]) total += w;
  return total;
}

long long CountViaTreeDecomposition(const Csp& csp,
                                    const TreeDecomposition& td,
                                    ThreadPool* pool) {
  return CountRelationTree(BuildRelationTreeFromTd(csp, td, pool), pool);
}

long long CountViaGhd(const Csp& csp,
                      const GeneralizedHypertreeDecomposition& ghd,
                      ThreadPool* pool) {
  return CountRelationTree(BuildRelationTreeFromGhd(csp, ghd, pool), pool);
}

long long CountAcyclicCsp(const Csp& csp, ThreadPool* pool) {
  return CountRelationTree(BuildRelationTreeFromJoinTree(csp), pool);
}

}  // namespace hypertree
