// Racing portfolio solver for ghw (ROADMAP: "portfolio layer").
//
// PortfolioGhw races the routed engine lineup concurrently on a
// ThreadPool, one cancellation token per engine:
//
//   prologue (deterministic, single-threaded):
//     features -> router -> static lower bound -> heuristic incumbent u0
//   race:
//     every engine starts from the same prologue bounds
//     (initial_upper_bound = u0) under deterministic node/iteration
//     budgets; an engine that PROVES optimality cancels all
//     higher-indexed engines through their tokens
//   verdict:
//     winner = lowest-indexed prover; its width/nodes and the prologue
//     bounds form the result
//
// Determinism: each engine is a deterministic function of (instance,
// seed, budgets) — single-threaded, no wall-clock-dependent decisions
// until the time-limit backstop fires — and cancellation only ever
// arrives from LOWER-indexed engines, whose outcomes do not depend on
// scheduling either (by induction on the index). Hence the winner, its
// width, its node count, and the witness are identical for every
// --threads value; only per-engine wall times and which losers got
// cancelled early vary, and those are reported as non-compared counters.
// Engines share bounds only through the prologue and the supersede
// cancellation: none reads another engine's bounds mid-search.

#ifndef HYPERTREE_PORTFOLIO_PORTFOLIO_H_
#define HYPERTREE_PORTFOLIO_PORTFOLIO_H_

#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "portfolio/features.h"
#include "portfolio/router.h"
#include "td/exact.h"

namespace hypertree {

/// Portfolio control knobs.
struct PortfolioOptions {
  /// Wall-clock backstop per engine; <= 0: unlimited. Results stay
  /// deterministic as long as no engine hits it (engines are budgeted by
  /// nodes/iterations first).
  double time_limit_seconds = 10.0;
  /// Total node/evaluation budget for the race; the router splits it
  /// across the lineup (lead prover: half, followers: a sixteenth each),
  /// so the worst case — nobody proves, nothing cancelled — still costs
  /// less than one full single-engine run. <= 0: unlimited.
  long max_nodes = 0;
  /// Racing threads; <= 0: hardware concurrency. Does not change results.
  int threads = 0;
  uint64_t seed = 1;
  /// Print one per-engine trace line to stderr as the race settles.
  bool trace = false;
  /// External cooperative cancellation (e.g. a serve request deadline or
  /// server shutdown): every engine polls it alongside its supersede
  /// token and the race returns its anytime bounds once it fires. When
  /// it fires mid-race, results are timing-dependent, exactly like the
  /// wall-clock backstop.
  CancellationToken cancel;
};

/// Per-engine outcome, for traces and `portfolio.*` counters.
struct EngineStats {
  EngineKind kind = EngineKind::kBbGhw;
  std::string name;        // EngineName(kind)
  bool ran = false;        // false: superseded before starting
  bool proved = false;     // proved ghw optimality
  bool cancelled = false;  // stopped by a lower-indexed prover
  int width = -1;          // exact-cover width of its witness; -1 if none
  int lower_bound = 0;     // ghw lower bound this engine established
  long nodes = 0;          // nodes / evaluations spent
  double seconds = 0;      // wall time inside the engine
};

/// The race verdict.
struct PortfolioResult {
  WidthResult result;       // aggregate bounds + witness ordering
  int winner = -1;          // lineup index of the winning prover; -1: none
  std::string winner_name;  // EngineName or "prologue"
  InstanceFeatures features;
  RoutingPlan plan;
  std::vector<EngineStats> engines;     // one per lineup slot
  double prologue_seconds = 0;          // features + router + seed bounds
  double cancel_latency_seconds = -1;   // first proof -> race settled; -1 n/a
};

/// Races the routed lineup on `h` and returns the verdict. The result
/// witness ordering always exact-cover-evaluates to result.upper_bound.
PortfolioResult PortfolioGhw(const Hypergraph& h,
                             const PortfolioOptions& options = {});

}  // namespace hypertree

#endif  // HYPERTREE_PORTFOLIO_PORTFOLIO_H_
