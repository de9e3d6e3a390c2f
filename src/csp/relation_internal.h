// Raw-buffer access seam between Relation and the morsel engine
// (morsel_engine.cc): the engine emits join/project output directly into
// the flat buffer and compacts semijoin survivors in place, which needs
// the private representation. Nothing outside src/csp/ may include this.

#ifndef HYPERTREE_CSP_RELATION_INTERNAL_H_
#define HYPERTREE_CSP_RELATION_INTERNAL_H_

#include <vector>

#include "csp/relation.h"

namespace hypertree {

struct RelationInternal {
  static std::vector<int>& Data(Relation& r) { return r.data_; }
  static const std::vector<int>& Data(const Relation& r) { return r.data_; }
  static int& Rows(Relation& r) { return r.rows_; }
  static void CheckRep(const Relation& r) { r.DCheckRep(); }
};

}  // namespace hypertree

#endif  // HYPERTREE_CSP_RELATION_INTERNAL_H_
