// Conjunctive queries in Datalog-ish syntax:
//
//   ans(X, Z) :- r(X, Y), s(Y, Z), t(Z).
//
// The query hypergraph (one vertex per variable, one hyperedge per atom
// scope) is exactly the structure the decomposition algorithms consume;
// acyclic/bounded-width queries are the tractable classes of the paper.

#ifndef HYPERTREE_CQ_QUERY_H_
#define HYPERTREE_CQ_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace hypertree {

/// One query atom: relation name + variable names (repeats allowed).
struct Atom {
  std::string relation;
  std::vector<std::string> vars;
};

/// A conjunctive query: head variables and body atoms.
struct ConjunctiveQuery {
  std::vector<std::string> head;  // empty head = Boolean query
  std::vector<Atom> atoms;

  /// All distinct variable names in order of first appearance
  /// (head first, then body).
  std::vector<std::string> Variables() const;

  /// The query hypergraph: vertex i is Variables()[i] (named after it),
  /// edge a is the scope of atoms[a] (named "<relation>#<a>").
  Hypergraph QueryHypergraph() const;
};

/// The rules every query must meet before it is decomposed or answered:
/// a non-empty body, no body atom without variables (each atom is a
/// hyperedge of the query hypergraph, which must not be empty), and a
/// safe head (every head variable occurs in the body). An empty head is
/// a Boolean query and is legal. Returns false and sets *error on the
/// first violation. ParseConjunctiveQuery, AnswerQuery and
/// BruteForceAnswer all apply it.
bool ValidateConjunctiveQuery(const ConjunctiveQuery& q,
                              std::string* error = nullptr);

/// Parses "head(X, Y) :- atom1(X, Z), atom2(Z, Y)." (trailing period
/// optional, only whitespace after it; any head predicate name is
/// accepted) and applies ValidateConjunctiveQuery.
std::optional<ConjunctiveQuery> ParseConjunctiveQuery(
    const std::string& text, std::string* error = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CQ_QUERY_H_
