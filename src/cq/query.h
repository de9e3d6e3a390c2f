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

  /// The query hypergraph; `var_ids` (optional) receives the name->id
  /// mapping implied by Variables().
  Hypergraph QueryHypergraph() const;
};

/// Parses "head(X, Y) :- atom1(X, Z), atom2(Z, Y)." (trailing period
/// optional; any head predicate name is accepted). The head may be empty
/// (a Boolean query); a body atom with no variables is an error.
std::optional<ConjunctiveQuery> ParseConjunctiveQuery(
    const std::string& text, std::string* error = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CQ_QUERY_H_
