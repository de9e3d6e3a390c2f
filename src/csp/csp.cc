#include "csp/csp.h"

#include <algorithm>

#include "util/check.h"

namespace hypertree {

void Csp::AddConstraint(std::vector<int> scope, Relation relation,
                        std::string name) {
  HT_CHECK(relation.schema() == scope);
  for (int v : scope) HT_CHECK(v >= 0 && v < NumVariables());
  Constraint c;
  c.scope = std::move(scope);
  c.relation = std::move(relation);
  c.name = name.empty()
               ? std::string("c").append(std::to_string(NumConstraints()))
               : std::move(name);
  constraints_.push_back(std::move(c));
}

Hypergraph Csp::ConstraintHypergraph() const {
  Hypergraph h(NumVariables());
  std::vector<bool> covered(NumVariables(), false);
  for (const Constraint& c : constraints_) {
    h.AddEdge(c.scope, c.name);
    for (int v : c.scope) covered[v] = true;
  }
  for (int v = 0; v < NumVariables(); ++v) {
    if (!covered[v]) h.AddEdge({v}, "free_" + std::to_string(v));
  }
  h.set_name(name_.empty() ? "csp" : name_);
  return h;
}

bool Csp::IsSolution(const std::vector<int>& assignment) const {
  HT_CHECK(static_cast<int>(assignment.size()) == NumVariables());
  for (int v = 0; v < NumVariables(); ++v) {
    if (assignment[v] < 0 || assignment[v] >= domain_sizes_[v]) return false;
  }
  std::vector<int> tuple;
  for (const Constraint& c : constraints_) {
    tuple.clear();
    for (int v : c.scope) tuple.push_back(assignment[v]);
    // A scan of the rows: one check per solve needs no table.
    bool found = false;
    for (int r = 0; r < c.relation.Size() && !found; ++r) {
      found = std::equal(tuple.begin(), tuple.end(), c.relation.Row(r));
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace hypertree
