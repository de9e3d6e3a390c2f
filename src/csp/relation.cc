#include "csp/relation.h"

#include "csp/morsel_engine.h"
#include "util/check.h"

namespace hypertree {

std::vector<std::vector<int>> Relation::ToTuples() const {
  std::vector<std::vector<int>> out;
  out.reserve(rows_);
  for (int r = 0; r < rows_; ++r) {
    out.emplace_back(Row(r), Row(r) + Arity());
  }
  return out;
}

void Relation::AddTuple(const std::vector<int>& tuple) {
  HT_CHECK_EQ(tuple.size(), schema_.size())
      << "tuple arity does not match the relation schema";
  AddRow(tuple.data());
}

void Relation::Reserve(int num_rows) {
  data_.reserve(static_cast<size_t>(num_rows) * schema_.size());
}

int Relation::IndexOf(int var) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Relation Relation::Join(const Relation& other) const {
  // Single code path for serial and pooled execution: the engine with a
  // null pool runs every morsel on the calling thread.
  return EngineJoin(*this, other, /*pool=*/nullptr);
}

Relation Relation::Semijoin(const Relation& other) const {
  Relation out(*this);
  out.SemijoinInPlace(other);
  return out;
}

void Relation::SemijoinInPlace(const Relation& other) {
  EngineSemijoinInPlace(this, other, /*pool=*/nullptr);
}

Relation Relation::Project(const std::vector<int>& vars) const {
  return EngineProject(*this, vars, /*pool=*/nullptr);
}

}  // namespace hypertree
