#include "csp/backtracking.h"

#include <algorithm>
#include <limits>

#include "csp/key_tables.h"

namespace hypertree {

namespace {

class Backtracker {
 public:
  Backtracker(const Csp& csp, long max_nodes)
      : csp_(csp), max_nodes_(max_nodes), n_(csp.NumVariables()) {
    assignment_.assign(n_, -1);
    // Constraints indexed by the variable assigned last in static order
    // (variables are assigned 0, 1, 2, ...), so each check fires exactly
    // once, as soon as its scope is complete.
    watch_.resize(n_);
    for (int c = 0; c < csp_.NumConstraints(); ++c) {
      int last = 0;
      for (int v : csp_.GetConstraint(c).scope) last = std::max(last, v);
      watch_[last].push_back(c);
      rows_.push_back(NumberRows(csp_.GetConstraint(c).relation));
    }
  }

  // Returns the number of solutions found (stops at `limit` solutions).
  long Search(int var, long limit, std::vector<int>* first_solution) {
    if (aborted_) return 0;
    if (var == n_) {
      if (first_solution != nullptr && solutions_ == 0) {
        *first_solution = assignment_;
      }
      ++solutions_;
      return 1;
    }
    long found = 0;
    for (int val = 0; val < csp_.DomainSize(var); ++val) {
      ++nodes_;
      if (max_nodes_ > 0 && nodes_ > max_nodes_) {
        aborted_ = true;
        return found;
      }
      assignment_[var] = val;
      if (Consistent(var)) {
        found += Search(var + 1, limit, first_solution);
        if (solutions_ >= limit || aborted_) break;
      }
    }
    assignment_[var] = -1;
    return found;
  }

  // Looks each completed scope up in its constraint's row table, read
  // straight from the assignment (scope entries are variable ids).
  bool Consistent(int var) const {
    long uncharged = 0;  // membership probes feed no counter
    for (int c : watch_[var]) {
      const std::vector<int>& scope = csp_.GetConstraint(c).scope;
      if (rows_[c].Find(assignment_.data(), scope.data(), &uncharged) ==
          kAbsentCode) {
        return false;
      }
    }
    return true;
  }

  long nodes() const { return nodes_; }
  bool aborted() const { return aborted_; }

 private:
  const Csp& csp_;
  long max_nodes_;
  int n_;
  std::vector<int> assignment_;
  std::vector<std::vector<int>> watch_;
  std::vector<KeyNumbering> rows_;  // row table per constraint
  long nodes_ = 0;
  long solutions_ = 0;
  bool aborted_ = false;
};

}  // namespace

std::optional<std::vector<int>> BacktrackingSolve(const Csp& csp,
                                                  long max_nodes,
                                                  BacktrackStats* stats) {
  Backtracker bt(csp, max_nodes);
  std::vector<int> solution;
  long found = bt.Search(0, /*limit=*/1, &solution);
  if (stats != nullptr) {
    stats->nodes = bt.nodes();
    stats->aborted = bt.aborted();
  }
  if (found > 0) return solution;
  return std::nullopt;
}

long BacktrackingCountSolutions(const Csp& csp, long max_nodes,
                                BacktrackStats* stats) {
  Backtracker bt(csp, max_nodes);
  long found = bt.Search(0, /*limit=*/std::numeric_limits<long>::max(),
                         nullptr);
  if (stats != nullptr) {
    stats->nodes = bt.nodes();
    stats->aborted = bt.aborted();
  }
  return found;
}

}  // namespace hypertree
