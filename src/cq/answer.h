// Conjunctive-query answering through generalized hypertree
// decompositions: the end-to-end pipeline of the paper. The query's
// hypergraph is decomposed, and the rest is the relation-tree pipeline
// CSP solving uses (csp/yannakakis.h): the shared GHD builder
// materializes pi_chi(join of lambda atoms) per node and roots the tree
// once (children in ascending node id, a parent-first order), and
// FullyReduce runs both semijoin passes, stopping after the bottom-up
// one with an empty answer when the root comes out empty. Answers are
// then assembled bottom-up with projections onto connector + head
// variables — output-polynomial for bounded-width queries.

#ifndef HYPERTREE_CQ_ANSWER_H_
#define HYPERTREE_CQ_ANSWER_H_

#include <optional>
#include <string>

#include "cq/database.h"
#include "cq/query.h"
#include "csp/relation.h"

namespace hypertree {

class ThreadPool;

/// Work counters for query evaluation.
struct AnswerStats {
  int decomposition_width = 0;
  long intermediate_tuples = 0;  // rows materialized across all nodes
};

/// Evaluates `q` over `db` via a GHD of the query hypergraph. The answer
/// relation's schema lists the head variables by their ids in
/// q.Variables() order; a Boolean query yields an empty-schema relation
/// with one tuple (true) or none (false). Fails (nullopt + error) on a
/// query that fails ValidateConjunctiveQuery, repeated head variables,
/// missing tables or arity mismatches. With a pool, the per-node bag
/// joins and the Yannakakis passes (one depth level at a time) run in
/// parallel; the answer relation (schema, tuples and tuple order) is
/// bit-identical for any thread count.
std::optional<Relation> AnswerQuery(const ConjunctiveQuery& q,
                                    const Database& db,
                                    std::string* error = nullptr,
                                    AnswerStats* stats = nullptr,
                                    ThreadPool* pool = nullptr);

/// Reference evaluation: join all atoms directly, project the head
/// (exponential; for tests and tiny queries). Fails (nullopt + error) on
/// a query that fails ValidateConjunctiveQuery, missing tables or arity
/// mismatches.
std::optional<Relation> BruteForceAnswer(const ConjunctiveQuery& q,
                                         const Database& db,
                                         std::string* error = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CQ_ANSWER_H_
