// AVX2 kernel backend: explicit 256-bit vectors over the 64-bit word
// layout. Compiled with per-function target attributes (no global
// -mavx2), selected at runtime only when the CPU reports AVX2, so the
// same binary runs on any x86-64 machine.
//
// Layout strategy:
//  * multi-word buffers: 256-bit lanes over the full 4-word groups
//    inside `nwords`, scalar tail for the remainder. Correctness never
//    depends on buffer padding — padding only buys alignment.
//  * packed single-word rows (stride == 1, nwords == 1): four rows per
//    vector with a broadcast mask and per-lane popcounts. This is the
//    hot shape for the paper's benchmark instances (n, m <= 64).
//
// Popcounts use the classic nibble-LUT (shuffle + sad) sequence: pure
// integer ops, so every count is bit-identical to the scalar oracle.

#include <algorithm>

#include "kernels/kernels_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HT_KERNELS_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#endif

namespace hypertree::kernels::internal {

#if defined(HT_KERNELS_HAVE_AVX2_BUILD)

#define HT_AVX2 __attribute__((target("avx2")))

namespace {

inline const uint64_t* Row(const uint64_t* rows, size_t stride, int r) {
  return rows + static_cast<size_t>(r) * stride;
}

/// Per-64-bit-lane population counts of v.
HT_AVX2 inline __m256i Popcnt256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/// Sum of the four 64-bit lanes.
HT_AVX2 inline long Hsum256(__m256i v) {
  uint64_t tmp[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp), v);
  return static_cast<long>(tmp[0] + tmp[1] + tmp[2] + tmp[3]);
}

HT_AVX2 inline int PopcountIntersectRow(const uint64_t* row,
                                        const uint64_t* conn, int nwords) {
  int i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 4 <= nwords; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(conn + i));
    acc = _mm256_add_epi64(acc, Popcnt256(_mm256_and_si256(a, b)));
  }
  int c = static_cast<int>(Hsum256(acc));
  for (; i < nwords; ++i) c += __builtin_popcountll(row[i] & conn[i]);
  return c;
}

HT_AVX2 int OrReduceRows(uint64_t* dst, int nwords, const uint64_t* rows,
                         size_t stride, const uint64_t* mask,
                         int mask_words) {
  for (int i = 0; i < nwords; ++i) dst[i] = 0;
  int nrows = 0;
  for (int w = 0; w < mask_words; ++w) {
    uint64_t m = mask[w];
    while (m != 0) {
      const int v = w * 64 + __builtin_ctzll(m);
      m &= m - 1;
      const uint64_t* row = Row(rows, stride, v);
      int i = 0;
      for (; i + 4 <= nwords; i += 4) {
        const __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        const __m256i r =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_or_si256(d, r));
      }
      for (; i < nwords; ++i) dst[i] |= row[i];
      ++nrows;
    }
  }
  return nrows;
}

HT_AVX2 int OrReduceRowsFiltered(uint64_t* dst, int nwords,
                                 const uint64_t* rows, size_t stride,
                                 const uint64_t* mask, int mask_words,
                                 const uint64_t* filter, bool* out_any) {
  const int nrows = OrReduceRows(dst, nwords, rows, stride, mask, mask_words);
  int i = 0;
  __m256i anyv = _mm256_setzero_si256();
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i f =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(filter + i));
    const __m256i r = _mm256_and_si256(d, f);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    anyv = _mm256_or_si256(anyv, r);
  }
  uint64_t any = _mm256_testz_si256(anyv, anyv) != 0 ? 0 : 1;
  for (; i < nwords; ++i) {
    dst[i] &= filter[i];
    any |= dst[i];
  }
  *out_any = any != 0;
  return nrows;
}

HT_AVX2 void FrontierCommit(uint64_t* acc, uint64_t* pending,
                            const uint64_t* reach, int nwords) {
  int i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(reach + i));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pending + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_or_si256(a, r));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pending + i),
                        _mm256_andnot_si256(r, p));
  }
  for (; i < nwords; ++i) {
    acc[i] |= reach[i];
    pending[i] &= ~reach[i];
  }
}

HT_AVX2 inline bool RowNotSubset(const uint64_t* row, const uint64_t* b,
                                 int nwords) {
  int i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i bb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i t = _mm256_andnot_si256(bb, r);  // row & ~b
    if (_mm256_testz_si256(t, t) == 0) return true;
  }
  for (; i < nwords; ++i) {
    if ((row[i] & ~b[i]) != 0) return true;
  }
  return false;
}

HT_AVX2 void FilterRowsNotSubset(uint64_t* out_mask, const uint64_t* rows,
                                 size_t stride, const uint64_t* mask,
                                 int mask_words, const uint64_t* b,
                                 int nwords) {
  for (int w = 0; w < mask_words; ++w) {
    uint64_t out = 0;
    uint64_t m = mask[w];
    while (m != 0) {
      const int bit = __builtin_ctzll(m);
      m &= m - 1;
      if (RowNotSubset(Row(rows, stride, w * 64 + bit), b, nwords)) {
        out |= uint64_t{1} << bit;
      }
    }
    out_mask[w] = out;
  }
}

HT_AVX2 void ScoreRows(int* counts, const uint64_t* rows, size_t stride,
                       const int* idx, int k, const uint64_t* conn,
                       int nwords) {
  if (stride == 1 && nwords == 1 && idx == nullptr) {
    // Packed single-word rows: four candidates per vector.
    const __m256i c = _mm256_set1_epi64x(static_cast<long long>(conn[0]));
    int i = 0;
    for (; i + 4 <= k; i += 4) {
      const __m256i r =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
      uint64_t tmp[4];
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp),
                          Popcnt256(_mm256_and_si256(r, c)));
      counts[i] = static_cast<int>(tmp[0]);
      counts[i + 1] = static_cast<int>(tmp[1]);
      counts[i + 2] = static_cast<int>(tmp[2]);
      counts[i + 3] = static_cast<int>(tmp[3]);
    }
    for (; i < k; ++i) counts[i] = __builtin_popcountll(rows[i] & conn[0]);
    return;
  }
  for (int i = 0; i < k; ++i) {
    counts[i] = PopcountIntersectRow(
        Row(rows, stride, idx != nullptr ? idx[i] : i), conn, nwords);
  }
}

HT_AVX2 int MaxIntersect(const uint64_t* rows, size_t stride, int nrows,
                         const uint64_t* conn, int nwords) {
  int best = 0;
  if (stride == 1 && nwords == 1) {
    const __m256i c = _mm256_set1_epi64x(static_cast<long long>(conn[0]));
    __m256i bestv = _mm256_setzero_si256();
    int r = 0;
    for (; r + 4 <= nrows; r += 4) {
      const __m256i row =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + r));
      const __m256i cnt = Popcnt256(_mm256_and_si256(row, c));
      const __m256i gt = _mm256_cmpgt_epi64(cnt, bestv);
      bestv = _mm256_blendv_epi8(bestv, cnt, gt);
    }
    uint64_t tmp[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp), bestv);
    for (uint64_t t : tmp) best = std::max(best, static_cast<int>(t));
    for (; r < nrows; ++r) {
      best = std::max(best, __builtin_popcountll(rows[r] & conn[0]));
    }
    return best;
  }
  for (int r = 0; r < nrows; ++r) {
    best = std::max(
        best, PopcountIntersectRow(Row(rows, stride, r), conn, nwords));
  }
  return best;
}

HT_AVX2 int AndCount(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                     int nwords) {
  int i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 4 <= nwords; i += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i r = _mm256_and_si256(av, bv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    acc = _mm256_add_epi64(acc, Popcnt256(r));
  }
  int c = static_cast<int>(Hsum256(acc));
  for (; i < nwords; ++i) {
    dst[i] = a[i] & b[i];
    c += __builtin_popcountll(dst[i]);
  }
  return c;
}

HT_AVX2 int AndNotCount(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                        int nwords) {
  int i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 4 <= nwords; i += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i r = _mm256_andnot_si256(bv, av);  // a & ~b
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    acc = _mm256_add_epi64(acc, Popcnt256(r));
  }
  int c = static_cast<int>(Hsum256(acc));
  for (; i < nwords; ++i) {
    dst[i] = a[i] & ~b[i];
    c += __builtin_popcountll(dst[i]);
  }
  return c;
}

HT_AVX2 int IntersectCount(const uint64_t* a, const uint64_t* b, int nwords) {
  return PopcountIntersectRow(a, b, nwords);
}

HT_AVX2 bool AndNotIsEmpty(const uint64_t* a, const uint64_t* b, int nwords) {
  return !RowNotSubset(a, b, nwords);
}

// ---------------------------------------------------------------------------
// Join-engine key primitives. PackKeys gathers four rows' key columns
// per iteration and folds them into packed words with variable-count
// shifts; min/max run in the sign-flipped domain (cmpgt_epi64 is
// signed; XOR with the sign bit makes it an unsigned compare).
// ProbeKeys vectorizes the splitmix64 finalizer four keys at a time
// (64x64 multiply composed from 32x32 partial products) and walks the
// open-addressed slots scalar-wise with the precomputed hashes.
// ---------------------------------------------------------------------------

HT_AVX2 void PackKeys(uint64_t* keys, const int* rows, size_t stride,
                      const int* pos, int k, int bits, int nrows,
                      uint64_t* out_min, uint64_t* out_max) {
  uint64_t mn = ~uint64_t{0};
  uint64_t mx = 0;
  int r = 0;
  // Gather indices are signed 32-bit element offsets; delegate every row
  // to the scalar tail if the buffer could overflow them.
  const bool fits =
      nrows <= 0 || static_cast<size_t>(nrows) * stride + stride <
                        (size_t{1} << 31);
  if (k > 0 && fits && nrows >= 4) {
    const __m256i vflip = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    __m256i vmn = _mm256_set1_epi64x(0x7fffffffffffffffLL);  // flipped ~0
    __m256i vmx = vflip;                                     // flipped 0
    const __m128i vshift = _mm_cvtsi32_si128(bits);
    const int s = static_cast<int>(stride);
    const __m128i row_step = _mm_setr_epi32(0, s, 2 * s, 3 * s);
    for (; r + 4 <= nrows; r += 4) {
      __m256i key = _mm256_setzero_si256();
      const int base = r * s;
      for (int i = 0; i < k; ++i) {
        const __m128i idx =
            _mm_add_epi32(_mm_set1_epi32(base + pos[i]), row_step);
        const __m128i g = _mm_i32gather_epi32(rows, idx, 4);
        key = _mm256_or_si256(_mm256_sll_epi64(key, vshift),
                              _mm256_cvtepu32_epi64(g));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + r), key);
      const __m256i kf = _mm256_xor_si256(key, vflip);
      vmn = _mm256_blendv_epi8(vmn, kf, _mm256_cmpgt_epi64(vmn, kf));
      vmx = _mm256_blendv_epi8(vmx, kf, _mm256_cmpgt_epi64(kf, vmx));
    }
    alignas(32) uint64_t lane[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), vmn);
    for (uint64_t v : lane) {
      mn = std::min(mn, v ^ uint64_t{0x8000000000000000ULL});
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), vmx);
    for (uint64_t v : lane) {
      mx = std::max(mx, v ^ uint64_t{0x8000000000000000ULL});
    }
    // The vector loop saw at least one key, so the flipped-domain
    // sentinels can no longer win the reduction; mn/mx are real keys.
  }
  for (; r < nrows; ++r) {
    const int* row = rows + static_cast<size_t>(r) * stride;
    uint64_t key = 0;
    for (int i = 0; i < k; ++i) {
      key = (key << bits) |
            static_cast<uint64_t>(static_cast<uint32_t>(row[pos[i]]));
    }
    keys[r] = key;
    mn = std::min(mn, key);
    mx = std::max(mx, key);
  }
  *out_min = mn;
  *out_max = mx;
}

/// Per-lane 64x64 -> low-64 multiply from 32x32 partial products
/// (AVX2 has no epi64 multiply).
HT_AVX2 inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

HT_AVX2 long ProbeKeys(int32_t* out_val, const uint64_t* keys, int nrows,
                       const uint64_t* slot_keys, const int32_t* slot_vals,
                       uint64_t mask) {
  const __m256i c1 =
      _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  const __m256i c2 =
      _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL));
  const __m256i c3 =
      _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL));
  long collisions = 0;
  int r = 0;
  alignas(32) uint64_t h[4];
  for (; r + 4 <= nrows; r += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + r));
    x = _mm256_add_epi64(x, c1);
    x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), c2);
    x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), c3);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
    _mm256_store_si256(reinterpret_cast<__m256i*>(h), x);
    for (int t = 0; t < 4; ++t) {
      const uint64_t key = keys[r + t];
      size_t slot = h[t] & mask;
      int32_t val = -1;
      while (slot_vals[slot] != -1) {
        if (slot_keys[slot] == key) {
          val = slot_vals[slot];
          break;
        }
        ++collisions;
        slot = (slot + 1) & mask;
      }
      out_val[r + t] = val;
    }
  }
  for (; r < nrows; ++r) {
    const uint64_t key = keys[r];
    size_t slot = SplitMix64(key) & mask;
    int32_t val = -1;
    while (slot_vals[slot] != -1) {
      if (slot_keys[slot] == key) {
        val = slot_vals[slot];
        break;
      }
      ++collisions;
      slot = (slot + 1) & mask;
    }
    out_val[r] = val;
  }
  return collisions;
}

}  // namespace

bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2") != 0;
  return have;
}

const Ops& Avx2Raw() {
  static const Ops table = {
      "avx2",
      OrReduceRows,
      OrReduceRowsFiltered,
      FrontierCommit,
      FilterRowsNotSubset,
      ScoreRows,
      MaxIntersect,
      AndCount,
      AndNotCount,
      IntersectCount,
      AndNotIsEmpty,
      PackKeys,
      ProbeKeys,
  };
  return table;
}

#undef HT_AVX2

#else  // !HT_KERNELS_HAVE_AVX2_BUILD

// Non-x86 (or non-GNU) build: the AVX2 backend degrades to the scalar
// reference table and never reports availability.

bool HaveAvx2() { return false; }

const Ops& Avx2Raw() { return ScalarRaw(); }

#endif  // HT_KERNELS_HAVE_AVX2_BUILD

}  // namespace hypertree::kernels::internal
