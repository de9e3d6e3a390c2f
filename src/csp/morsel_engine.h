// The morsel-driven relational engine behind Relation's join / semijoin /
// project operators, weighted counting and the solver layers' pool-aware
// entry points.
//
// Execution model: the probe side of every operator is cut into fixed
// kMorselRows-row morsels (chunks); each morsel turns its key columns
// into one uint64_t code per row, carries min/max code zone-map
// metadata, and is processed as one work item on the caller's ThreadPool
// (ParallelFor — nestable, so within-bag parallelism composes with the
// across-bag tree schedules). Output concatenation is morsel-index-
// ordered, so results are bit-identical for any thread count.
//
// Key codes, chosen per operator from the data by one function:
//   packed    non-negative values with k * bits <= 64 packed into one
//             word (kernels::Ops PackKeys) — the dominant CSP-bag shape;
//   k = 0     no shared or projected variable: every code is 0, so a
//             join is a cross product on the dense path, a semijoin keeps
//             all rows or none and a projection keeps one empty row;
//   numbered  anything else (negative values, > 64 bits): one row-keyed
//             table numbers the build side's distinct key tuples in
//             first-occurrence order; probe rows look theirs up.
// Every operator then runs on the codes alone, in one of two table modes:
//   dense   code span small: direct-indexed arrays (bitmap /
//           head+count), no hashing at all.
//   hash    open-addressed table over distinct codes, probed via
//           kernels::Ops ProbeKeys (SIMD splitmix64).
//
// Larger-than-core: when the per-query MemoryBudget() is exceeded, join
// outputs spill to a temp file as ChunkedRelation chunks, and a semijoin
// whose build table is over budget grace-partitions both sides (radix on
// the code's hash) to disk: build codes, then each in-range left row as a
// (code, row) pair, every left morsel coded once. Each partition is
// one work item that probes its own small key set, so each left row is
// still probed once. Spill decisions are pure functions of exact
// pre-pass sizes, so answers stay bit-identical spill-on and spill-off
// (docs/SOLVING.md).

#ifndef HYPERTREE_CSP_MORSEL_ENGINE_H_
#define HYPERTREE_CSP_MORSEL_ENGINE_H_

#include <vector>

#include "csp/morsel.h"
#include "csp/relation.h"

namespace hypertree {

class ThreadPool;

/// Natural join (probe side a, build side b); same contract as
/// Relation::Join plus morsel parallelism over `pool` (nullptr: the
/// calling thread processes every morsel). Output is always resident.
Relation EngineJoin(const Relation& a, const Relation& b, ThreadPool* pool);

/// In-place semijoin; same contract as Relation::SemijoinInPlace plus
/// morsel parallelism and the grace-partitioned spill path when the
/// build table exceeds MemoryBudget().
void EngineSemijoinInPlace(Relation* left, const Relation& right,
                           ThreadPool* pool);

/// Weighted semijoin, the step of counting: multiplies left_weights[t]
/// by the sum of right_weights[u] over the rows u of `right` that agree
/// with row t of `left` on their shared variables (0 when none does).
/// The weight vectors are aligned with the relations' rows. Morsel-
/// parallel over both sides' key coding and the left rows; the products
/// are identical for any thread count. Adds nothing to
/// relation.rows_joined or relation.rows_semijoin_dropped.
void EngineWeightedSemijoin(const Relation& left,
                            std::vector<long long>* left_weights,
                            const Relation& right,
                            const std::vector<long long>& right_weights,
                            ThreadPool* pool);

/// Projection with dedup; same contract as Relation::Project plus
/// morsel-parallel key packing.
Relation EngineProject(const Relation& r, const std::vector<int>& vars,
                       ThreadPool* pool);

/// Join with a chunked (possibly spilled) probe side: the larger-than-
/// core join-chain primitive. The output spills when its exact
/// pre-pass size exceeds MemoryBudget(), otherwise it is resident.
ChunkedRelation EngineJoinChunked(const ChunkedRelation& a, const Relation& b,
                                  ThreadPool* pool);

/// Projection over a chunked relation, streaming one chunk at a time
/// (peak memory is one chunk plus the dedup table, not the full input).
/// The output (a decomposition bag) is always resident.
Relation EngineProjectChunked(const ChunkedRelation& a,
                              const std::vector<int>& vars, ThreadPool* pool);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_MORSEL_ENGINE_H_
