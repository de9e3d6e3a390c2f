// Greedy set cover (Chvatal / Johnson; thesis Figure 7.2): repeatedly pick
// the candidate set covering the most still-uncovered target elements.
// ln(n)-approximate, and in practice near-optimal on the bag-cover
// instances arising in bucket elimination.

#ifndef HYPERTREE_SETCOVER_GREEDY_H_
#define HYPERTREE_SETCOVER_GREEDY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitset.h"
#include "util/rng.h"

namespace hypertree {

/// Caller-owned scratch for GreedySetCoverRows (the kernel layer never
/// allocates): the live candidate list, the per-round kernel scores, and
/// the uncovered remainder. One per search worker; reused across calls
/// with no steady-state allocation.
struct GreedyCoverScratch {
  std::vector<int> live;
  std::vector<int> counts;
  Bitset uncovered;
};

/// Covers `target` with sets from `candidates`, greedily. Returns the
/// number of sets used; stores the chosen candidate indices in `chosen`
/// if non-null. Ties are broken randomly when `rng` is non-null, else by
/// lowest index. Requires that the union of candidates contains target.
int GreedySetCover(const std::vector<Bitset>& candidates, const Bitset& target,
                   Rng* rng = nullptr, std::vector<int>* chosen = nullptr);

/// Kernel-backed greedy cover over a flat row arena (candidate i = row i
/// at rows + i * stride, NumWords(target) words wide — e.g. the
/// incidence index's EdgeVarRows()). Each round scores every live
/// candidate with one batched kernel call (src/kernels), then replays
/// the same ascending pick / tie-break scan as the vector form.
/// `active` restricts the scan to the set candidate indices (nullptr:
/// all `nrows`). Candidates whose score hits zero retire permanently —
/// the uncovered set only shrinks, so they can never be picked and never
/// draw a tie-break tick. Picks, rng draw sequence and result are
/// bit-identical to the vector form over all candidates whenever
/// `active` holds every candidate that intersects `target`.
int GreedySetCoverRows(const uint64_t* rows, size_t stride, int nrows,
                       const Bitset* active, const Bitset& target,
                       Rng* rng, std::vector<int>* chosen,
                       GreedyCoverScratch* scratch);

}  // namespace hypertree

#endif  // HYPERTREE_SETCOVER_GREEDY_H_
