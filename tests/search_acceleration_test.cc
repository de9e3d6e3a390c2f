// End-to-end guarantee of det-k's subproblem memo: enabling/disabling it
// never changes a completed search's width.
//
// Instances whose search exhausts its budget (grid3d_3 on slow machines)
// only get anytime sanity checks.

#include <string>

#include <gtest/gtest.h>

#include "hd/det_k_decomp.h"
#include "hypergraph/parser.h"
#include "td/exact.h"

namespace hypertree {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(HYPERTREE_SOURCE_DIR) + "/data/" + name;
}

const char* kInstances[] = {
    "adder_8.hg",    "bridge_8.hg",  "clique_8.hg",    "grid2d_4.hg",
    "grid3d_3.hg",   "cycle_10_3.hg", "circuit_40.hg", "random_25_30.hg",
    "acyclic_18.hg",
};

Hypergraph Load(const std::string& name) {
  std::string error;
  auto h = ReadHypergraphFile(DataPath(name), &error);
  EXPECT_TRUE(h.has_value()) << name << ": " << error;
  return *h;
}

SearchOptions BudgetedOptions() {
  SearchOptions opts;
  // Generous for the instances that complete (all finish well under a
  // second) while bounding the one known budget-buster (grid3d_3).
  opts.time_limit_seconds = 2.0;
  opts.max_nodes = 200000;
  opts.seed = 1;
  return opts;
}

TEST(SearchAccelerationTest, CacheAblationPreservesWidths) {
  for (const char* name : kInstances) {
    Hypergraph h = Load(name);

    SearchOptions with = BudgetedOptions();
    with.use_decomp_cache = true;
    WidthResult on = HypertreeWidth(h, with, nullptr);

    SearchOptions without = BudgetedOptions();
    without.use_decomp_cache = false;
    WidthResult off = HypertreeWidth(h, without, nullptr);

    if (!on.exact || !off.exact) {
      EXPECT_GE(on.upper_bound, on.lower_bound) << name;
      EXPECT_GE(off.upper_bound, off.lower_bound) << name;
      continue;
    }
    EXPECT_EQ(on.upper_bound, off.upper_bound) << name;
    EXPECT_EQ(on.lower_bound, off.lower_bound) << name;
    // The memo table must actually be exercised somewhere in the sweep.
    EXPECT_GT(on.cache_stats.inserts + on.cache_stats.misses, 0) << name;
    EXPECT_EQ(off.cache_stats.inserts, 0) << name;
  }
}

}  // namespace
}  // namespace hypertree
