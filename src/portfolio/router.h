// Rule-based instance router: maps InstanceFeatures to a racing lineup
// (which engines, in which supersede-priority order, with which budgets).
//
// The lineup order doubles as the determinism priority: the winner is the
// lowest-indexed prover, so the router puts the engine it expects to
// prove fastest first — then "lowest index wins" and "first to prove"
// almost always coincide and cancellation fires early.

#ifndef HYPERTREE_PORTFOLIO_ROUTER_H_
#define HYPERTREE_PORTFOLIO_ROUTER_H_

#include <string>
#include <vector>

#include "portfolio/features.h"

namespace hypertree {

/// The engines the portfolio can race.
enum class EngineKind {
  kDetK,         // hd/det_k_decomp iterative deepening (hw witness)
  kBbGhw,        // ghd/branch_and_bound, exact covers
  kAStarGhw,     // ghd/astar, exact covers
  kGaGhw,        // ga/ga_ghw, heuristic-seeded
  kSaiga,        // ga/saiga island GA
  kLocalSearch,  // ls/local_search iterated
};

/// Stable display / counter name ("det_k", "bb_ghw", ...).
const char* EngineName(EngineKind kind);

/// One lineup slot: an engine plus its deterministic budget knobs.
struct EngineSpec {
  EngineKind kind;
  /// Node / evaluation budget for this engine; <= 0 means unlimited.
  long max_nodes = 0;
};

/// The router's verdict for one instance.
struct RoutingPlan {
  std::vector<EngineSpec> lineup;  // supersede-priority order
  std::string rule;                // which routing rule fired (for traces)
};

/// Picks the racing lineup for an instance with features `f`.
/// `node_budget` is the portfolio's total node allowance (<= 0:
/// unlimited); the router splits it across the lineup — the lead prover
/// gets half, each follower a sixteenth — so that on instances where no
/// engine can prove optimality (every engine runs its budget out, nothing
/// gets cancelled) the race still costs no more than one full
/// single-engine run.
RoutingPlan RouteInstance(const InstanceFeatures& f, long node_budget = 0);

}  // namespace hypertree

#endif  // HYPERTREE_PORTFOLIO_ROUTER_H_
