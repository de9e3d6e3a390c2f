// det-k-decomp: the canonical decision procedure for hypertree width
// (Gottlob, Leone & Scarcello; the detkdecomp/newdetkdecomp OSS tools).
//
// Decides hw(H) <= k by recursively decomposing edge components: pick a
// separator lambda of at most k hyperedges covering the connecting
// vertices inherited from the parent, set chi = var(lambda) restricted to
// the component, split the remaining edges into subcomponents and recurse.
// Each (component, connector) pair is decided once per k: refutations and
// witness subtrees are memoized. The normal-form theorem of GLS
// guarantees completeness, and the chi choice makes the descendant
// condition (4) hold by construction. The search runs on the calling
// thread.

#ifndef HYPERTREE_HD_DET_K_DECOMP_H_
#define HYPERTREE_HD_DET_K_DECOMP_H_

#include <optional>

#include "hd/hypertree_decomposition.h"
#include "hypergraph/hypergraph.h"
#include "td/exact.h"

namespace hypertree {

/// Decides hw(h) <= k; returns a witness decomposition on success,
/// std::nullopt on failure or budget exhaustion (budget exhaustion also
/// sets *aborted when non-null).
std::optional<HypertreeDecomposition> DetKDecomp(const Hypergraph& h, int k,
                                                 const SearchOptions& options = {},
                                                 bool* aborted = nullptr);

/// Computes hw(h) by trying k = lb, lb+1, ... Returns anytime bounds;
/// `witness` (optional) receives the decomposition of upper_bound width.
/// `nodes` counts the subproblems visited over all k (one budget tick
/// each).
WidthResult HypertreeWidth(const Hypergraph& h,
                           const SearchOptions& options = {},
                           std::optional<HypertreeDecomposition>* witness =
                               nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_HD_DET_K_DECOMP_H_
