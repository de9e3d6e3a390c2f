#include "csp/relation.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace hypertree {
namespace {

using Tuples = std::vector<std::vector<int>>;

Relation Make(std::vector<int> schema, Tuples tuples) {
  Relation r(std::move(schema));
  for (auto& t : tuples) r.AddTuple(std::move(t));
  return r;
}

Tuples Sorted(const Relation& r) {
  Tuples t = r.ToTuples();
  std::sort(t.begin(), t.end());
  return t;
}

TEST(RelationTest, JoinOnSharedVariable) {
  Relation r = Make({0, 1}, {{1, 2}, {1, 3}, {2, 2}});
  Relation s = Make({1, 2}, {{2, 7}, {3, 8}, {9, 9}});
  Relation j = r.Join(s);
  EXPECT_EQ(j.schema(), (std::vector<int>{0, 1, 2}));
  // (1,2)x(2,7), (2,2)x(2,7), (1,3)x(3,8).
  EXPECT_EQ(Sorted(j), (Tuples{{1, 2, 7}, {1, 3, 8}, {2, 2, 7}}));
}

TEST(RelationTest, JoinNoSharedIsCrossProduct) {
  Relation r = Make({0}, {{1}, {2}});
  Relation s = Make({1}, {{5}, {6}});
  Relation j = r.Join(s);
  EXPECT_EQ(j.Size(), 4);
}

TEST(RelationTest, JoinWithEmptyIsEmpty) {
  Relation r = Make({0, 1}, {{1, 2}});
  Relation s(std::vector<int>{1, 2});
  EXPECT_TRUE(r.Join(s).Empty());
}

TEST(RelationTest, SemijoinFilters) {
  Relation r = Make({0, 1}, {{1, 2}, {1, 3}, {2, 2}});
  Relation s = Make({1, 2}, {{2, 7}});
  Relation sj = r.Semijoin(s);
  // The tuples with value 2 in column 1.
  EXPECT_EQ(Sorted(sj), (Tuples{{1, 2}, {2, 2}}));
}

TEST(RelationTest, SemijoinNoSharedVars) {
  Relation r = Make({0}, {{1}, {2}});
  Relation nonempty = Make({5}, {{0}});
  Relation empty(std::vector<int>{5});
  EXPECT_EQ(r.Semijoin(nonempty).Size(), 2);
  EXPECT_TRUE(r.Semijoin(empty).Empty());
}

TEST(RelationTest, ProjectDeduplicates) {
  Relation r = Make({0, 1}, {{1, 2}, {1, 3}, {2, 2}});
  Relation p = r.Project({0});
  EXPECT_EQ(Sorted(p), (Tuples{{1}, {2}}));
}

TEST(RelationTest, ProjectReorders) {
  Relation r = Make({3, 7}, {{1, 2}});
  Relation p = r.Project({7, 3});
  EXPECT_EQ(p.schema(), (std::vector<int>{7, 3}));
  EXPECT_EQ(Sorted(p), (Tuples{{2, 1}}));
}

TEST(RelationTest, JoinIsCommutativeUpToTupleSet) {
  Relation r = Make({0, 1}, {{1, 2}, {2, 3}});
  Relation s = Make({1, 2}, {{2, 5}, {3, 6}});
  Relation rs = r.Join(s);
  Relation sr = s.Join(r);
  // Same tuples after projecting to a common schema order.
  EXPECT_EQ(Sorted(rs), Sorted(sr.Project({0, 1, 2})));
}

TEST(RelationTest, EmptySchemaIdentity) {
  Relation id(std::vector<int>{});
  id.AddTuple({});
  Relation r = Make({0}, {{1}, {2}});
  EXPECT_EQ(r.Semijoin(id).Size(), 2);
  EXPECT_EQ(r.Join(id).Size(), 2);
}

}  // namespace
}  // namespace hypertree
