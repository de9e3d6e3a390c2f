// SharedBounds unit + concurrency tests. The concurrent-provers test
// exists for scripts/run_tsan_checks.sh: many provers racing on the same
// SharedBounds must stay data-race-free and agree on the lowest index.

#include <gtest/gtest.h>

#include <climits>
#include <thread>
#include <vector>

#include "portfolio/shared_bounds.h"

namespace hypertree {
namespace {

TEST(SharedBoundsTest, ProveCancelsOnlyHigherIndices) {
  SharedBounds sb(4);
  EXPECT_EQ(sb.BestProver(), INT_MAX);
  EXPECT_LT(sb.FirstProveSeconds(), 0);

  sb.Prove(2);
  EXPECT_EQ(sb.BestProver(), 2);
  EXPECT_GE(sb.FirstProveSeconds(), 0);
  EXPECT_FALSE(sb.TokenFor(0).Cancelled());
  EXPECT_FALSE(sb.TokenFor(1).Cancelled());
  EXPECT_FALSE(sb.TokenFor(2).Cancelled());
  EXPECT_TRUE(sb.TokenFor(3).Cancelled());
  EXPECT_FALSE(sb.Superseded(2));
  EXPECT_TRUE(sb.Superseded(3));

  // A later, lower-indexed prover takes over the winner slot; the earlier
  // prover's token stays uncancelled only for indices at or below 1.
  sb.Prove(1);
  EXPECT_EQ(sb.BestProver(), 1);
  EXPECT_FALSE(sb.TokenFor(0).Cancelled());
  EXPECT_FALSE(sb.TokenFor(1).Cancelled());
  EXPECT_TRUE(sb.TokenFor(2).Cancelled());
}

TEST(SharedBoundsTest, CancelAll) {
  SharedBounds sb(3);
  sb.CancelAll();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(sb.TokenFor(i).Cancelled());
}

// Concurrent provers: the lowest-indexed prover owns the verdict and only
// engines above the lowest prover end up cancelled.
TEST(SharedBoundsTest, ConcurrentProversLowestIndexWins) {
  constexpr int kEngines = 8;
  SharedBounds sb(kEngines);
  std::vector<std::thread> workers;
  for (int t = 2; t < kEngines; ++t) {
    workers.emplace_back([&sb, t] { sb.Prove(t); });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(sb.BestProver(), 2);
  EXPECT_FALSE(sb.TokenFor(0).Cancelled());
  EXPECT_FALSE(sb.TokenFor(1).Cancelled());
  EXPECT_FALSE(sb.TokenFor(2).Cancelled());
  for (int j = 3; j < kEngines; ++j) EXPECT_TRUE(sb.TokenFor(j).Cancelled());
  EXPECT_GE(sb.FirstProveSeconds(), 0);
  EXPECT_GE(sb.ElapsedSeconds(), sb.FirstProveSeconds());
}

}  // namespace
}  // namespace hypertree
