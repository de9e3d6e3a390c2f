// Internal seams between the kernel backends. The raw tables here are
// uncounted (no metrics): the public dispatch layer in kernels.cc wraps
// them with per-backend row counters.
//
// Nothing outside src/kernels/ may include this header.

#ifndef HYPERTREE_KERNELS_KERNELS_INTERNAL_H_
#define HYPERTREE_KERNELS_KERNELS_INTERNAL_H_

#include "kernels/kernels.h"

namespace hypertree::kernels::internal {

/// Uncounted scalar reference ops (the bit-identity oracle).
const Ops& ScalarRaw();

/// Uncounted AVX2 ops. Defined unconditionally; only valid to call when
/// HaveAvx2() is true (otherwise they are never selected).
const Ops& Avx2Raw();

/// Compile-time + runtime AVX2 availability (false on non-x86 builds).
bool HaveAvx2();

}  // namespace hypertree::kernels::internal

#endif  // HYPERTREE_KERNELS_KERNELS_INTERNAL_H_
