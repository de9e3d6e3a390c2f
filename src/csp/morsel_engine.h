// The morsel-driven relational engine behind Relation's join / semijoin /
// project operators and the solver layers' pool-aware entry points.
//
// Execution model: the probe side of every operator is cut into fixed
// kMorselRows-row morsels (chunks); each morsel packs its key columns
// into single words through the kernel dispatch table (kernels::Ops
// PackKeys), carries min/max packed-key zone-map metadata, and is
// processed as one work item on the caller's ThreadPool (ParallelFor —
// nestable, so within-bag parallelism composes with the across-bag tree
// schedules). Output concatenation is morsel-index-ordered, so results
// are bit-identical for any thread count.
//
// Key-table modes, chosen per operator from the data:
//   dense   packed-key span small: direct-indexed arrays (bitmap /
//           head+count), no hashing at all — the dominant CSP-bag shape.
//   hash    open-addressed table over distinct packed keys, probed via
//           kernels::Ops ProbeKeys (SIMD splitmix64).
//   generic the pre-engine row-hash path (relation.cc), for keys that
//           do not pack (negative values, > 64 bits total).
//
// Larger-than-core: when the per-query MemoryBudget() is exceeded, join
// outputs spill to a temp file as ChunkedRelation chunks, and a semijoin
// whose build table is over budget grace-partitions both sides (radix on
// the packed-key hash) to disk: build keys, then each in-range left row
// as a (key, row) pair, every left morsel packed once. Each partition is
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
