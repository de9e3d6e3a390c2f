#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

#include "kernels/kernels_internal.h"
#include "util/check.h"
#include "util/metrics.h"

namespace hypertree::kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference backend: one word at a time, in ascending row / word
// order. Every other backend is checked byte-for-byte against these.
// ---------------------------------------------------------------------------

namespace scalar {

inline const uint64_t* Row(const uint64_t* rows, size_t stride, int r) {
  return rows + static_cast<size_t>(r) * stride;
}

int OrReduceRows(uint64_t* dst, int nwords, const uint64_t* rows,
                 size_t stride, const uint64_t* mask, int mask_words) {
  for (int i = 0; i < nwords; ++i) dst[i] = 0;
  int nrows = 0;
  for (int w = 0; w < mask_words; ++w) {
    uint64_t m = mask[w];
    while (m != 0) {
      const int v = w * 64 + __builtin_ctzll(m);
      m &= m - 1;
      const uint64_t* row = Row(rows, stride, v);
      for (int i = 0; i < nwords; ++i) dst[i] |= row[i];
      ++nrows;
    }
  }
  return nrows;
}

int OrReduceRowsFiltered(uint64_t* dst, int nwords, const uint64_t* rows,
                         size_t stride, const uint64_t* mask, int mask_words,
                         const uint64_t* filter, bool* out_any) {
  const int nrows = OrReduceRows(dst, nwords, rows, stride, mask, mask_words);
  uint64_t any = 0;
  for (int i = 0; i < nwords; ++i) {
    dst[i] &= filter[i];
    any |= dst[i];
  }
  *out_any = any != 0;
  return nrows;
}

void FrontierCommit(uint64_t* acc, uint64_t* pending, const uint64_t* reach,
                    int nwords) {
  for (int i = 0; i < nwords; ++i) {
    acc[i] |= reach[i];
    pending[i] &= ~reach[i];
  }
}

void FilterRowsNotSubset(uint64_t* out_mask, const uint64_t* rows,
                         size_t stride, const uint64_t* mask, int mask_words,
                         const uint64_t* b, int nwords) {
  for (int w = 0; w < mask_words; ++w) {
    uint64_t out = 0;
    uint64_t m = mask[w];
    while (m != 0) {
      const int bit = __builtin_ctzll(m);
      m &= m - 1;
      const uint64_t* row = Row(rows, stride, w * 64 + bit);
      for (int i = 0; i < nwords; ++i) {
        if ((row[i] & ~b[i]) != 0) {
          out |= uint64_t{1} << bit;
          break;
        }
      }
    }
    out_mask[w] = out;
  }
}

void ScoreRows(int* counts, const uint64_t* rows, size_t stride,
               const int* idx, int k, const uint64_t* conn, int nwords) {
  for (int i = 0; i < k; ++i) {
    const uint64_t* row = Row(rows, stride, idx != nullptr ? idx[i] : i);
    int c = 0;
    for (int w = 0; w < nwords; ++w) {
      c += __builtin_popcountll(row[w] & conn[w]);
    }
    counts[i] = c;
  }
}

int MaxIntersect(const uint64_t* rows, size_t stride, int nrows,
                 const uint64_t* conn, int nwords) {
  int best = 0;
  for (int r = 0; r < nrows; ++r) {
    const uint64_t* row = Row(rows, stride, r);
    int c = 0;
    for (int w = 0; w < nwords; ++w) {
      c += __builtin_popcountll(row[w] & conn[w]);
    }
    if (c > best) best = c;
  }
  return best;
}

int AndCount(uint64_t* dst, const uint64_t* a, const uint64_t* b,
             int nwords) {
  int c = 0;
  for (int i = 0; i < nwords; ++i) {
    dst[i] = a[i] & b[i];
    c += __builtin_popcountll(dst[i]);
  }
  return c;
}

int AndNotCount(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                int nwords) {
  int c = 0;
  for (int i = 0; i < nwords; ++i) {
    dst[i] = a[i] & ~b[i];
    c += __builtin_popcountll(dst[i]);
  }
  return c;
}

int IntersectCount(const uint64_t* a, const uint64_t* b, int nwords) {
  int c = 0;
  for (int i = 0; i < nwords; ++i) c += __builtin_popcountll(a[i] & b[i]);
  return c;
}

bool AndNotIsEmpty(const uint64_t* a, const uint64_t* b, int nwords) {
  for (int i = 0; i < nwords; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

void PackKeys(uint64_t* keys, const int* rows, size_t stride, const int* pos,
              int k, int bits, int nrows, uint64_t* out_min,
              uint64_t* out_max) {
  uint64_t mn = ~uint64_t{0};
  uint64_t mx = 0;
  for (int r = 0; r < nrows; ++r) {
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

long ProbeKeys(int32_t* out_val, const uint64_t* keys, int nrows,
               const uint64_t* slot_keys, const int32_t* slot_vals,
               uint64_t mask) {
  long collisions = 0;
  for (int r = 0; r < nrows; ++r) {
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

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatch: public tables wrap the raw backends with per-backend row
// counters (only the row-batch ops count; the single-pair ops are too
// hot for even a relaxed atomic per call).
// ---------------------------------------------------------------------------

template <Backend B>
const Ops& RawFor();

template <>
const Ops& RawFor<Backend::kScalar>() {
  return internal::ScalarRaw();
}
template <>
const Ops& RawFor<Backend::kAvx2>() {
  return internal::Avx2Raw();
}

template <Backend B>
metrics::Counter& RowsCounter() {
  static metrics::Counter& c = metrics::GetCounter(
      std::string("kernels.rows.") + BackendName(B));
  return c;
}

template <Backend B>
metrics::Counter& CallsCounter() {
  static metrics::Counter& c = metrics::GetCounter(
      std::string("kernels.calls.") + BackendName(B));
  return c;
}

// Counted façade over a raw backend table. Row-batch ops add the number
// of rows they touched to kernels.rows.<backend> and one call to
// kernels.calls.<backend>; pure word-pair ops pass through uncounted.
template <Backend B>
struct Counted {
  static int OrReduceRows(uint64_t* dst, int nwords, const uint64_t* rows,
                          size_t stride, const uint64_t* mask,
                          int mask_words) {
    const int n = RawFor<B>().OrReduceRows(dst, nwords, rows, stride, mask,
                                           mask_words);
    RowsCounter<B>().Add(n);
    CallsCounter<B>().Increment();
    return n;
  }
  static int OrReduceRowsFiltered(uint64_t* dst, int nwords,
                                  const uint64_t* rows, size_t stride,
                                  const uint64_t* mask, int mask_words,
                                  const uint64_t* filter, bool* out_any) {
    const int n = RawFor<B>().OrReduceRowsFiltered(
        dst, nwords, rows, stride, mask, mask_words, filter, out_any);
    RowsCounter<B>().Add(n);
    CallsCounter<B>().Increment();
    return n;
  }
  static void FilterRowsNotSubset(uint64_t* out_mask, const uint64_t* rows,
                                  size_t stride, const uint64_t* mask,
                                  int mask_words, const uint64_t* b,
                                  int nwords) {
    RawFor<B>().FilterRowsNotSubset(out_mask, rows, stride, mask, mask_words,
                                    b, nwords);
    CallsCounter<B>().Increment();
  }
  static void ScoreRows(int* counts, const uint64_t* rows, size_t stride,
                        const int* idx, int k, const uint64_t* conn,
                        int nwords) {
    RawFor<B>().ScoreRows(counts, rows, stride, idx, k, conn, nwords);
    RowsCounter<B>().Add(k);
    CallsCounter<B>().Increment();
  }
  static int MaxIntersect(const uint64_t* rows, size_t stride, int nrows,
                          const uint64_t* conn, int nwords) {
    const int best = RawFor<B>().MaxIntersect(rows, stride, nrows, conn,
                                              nwords);
    RowsCounter<B>().Add(nrows);
    CallsCounter<B>().Increment();
    return best;
  }
  static void PackKeys(uint64_t* keys, const int* rows, size_t stride,
                       const int* pos, int k, int bits, int nrows,
                       uint64_t* out_min, uint64_t* out_max) {
    RawFor<B>().PackKeys(keys, rows, stride, pos, k, bits, nrows, out_min,
                         out_max);
    RowsCounter<B>().Add(nrows);
    CallsCounter<B>().Increment();
  }
  static long ProbeKeys(int32_t* out_val, const uint64_t* keys, int nrows,
                        const uint64_t* slot_keys, const int32_t* slot_vals,
                        uint64_t mask) {
    const long c = RawFor<B>().ProbeKeys(out_val, keys, nrows, slot_keys,
                                         slot_vals, mask);
    RowsCounter<B>().Add(nrows);
    CallsCounter<B>().Increment();
    return c;
  }

  static const Ops& Table() {
    static const Ops table = [] {
      Ops t = RawFor<B>();
      t.OrReduceRows = &Counted::OrReduceRows;
      t.OrReduceRowsFiltered = &Counted::OrReduceRowsFiltered;
      t.FilterRowsNotSubset = &Counted::FilterRowsNotSubset;
      t.ScoreRows = &Counted::ScoreRows;
      t.MaxIntersect = &Counted::MaxIntersect;
      t.PackKeys = &Counted::PackKeys;
      t.ProbeKeys = &Counted::ProbeKeys;
      return t;
    }();
    return table;
  }
};

// Active backend, as a resolved (never kAuto) enum value; -1 before the
// first SetBackend()/Active() call. The counted dispatch table of the
// active backend is published alongside it so Active() is one acquire
// load (the ops run millions of times per search; re-resolving the
// fallback chain per call would show up in profiles).
std::atomic<int> g_active{-1};
std::atomic<const Ops*> g_active_ops{nullptr};
std::once_flag g_env_once;

// Resolves auto and unsupported-AVX2 fallbacks, records the dispatch
// decision, and publishes the result.
void Publish(Backend requested) {
  Backend b = requested == Backend::kAuto ? ResolveAuto() : requested;
  if (b == Backend::kAvx2 && !Avx2Available()) {
    metrics::GetCounter("kernels.dispatch.avx2_unavailable").Increment();
    b = Backend::kScalar;
  }
  metrics::GetCounter(std::string("kernels.dispatch.") + BackendName(b))
      .Increment();
  g_active.store(static_cast<int>(b), std::memory_order_relaxed);
  g_active_ops.store(&GetOps(b), std::memory_order_release);
}

// First-use initialization from HYPERTREE_KERNEL_BACKEND; a prior
// explicit SetBackend() consumes the once-flag instead, so the
// environment never overrides a tool's --kernel-backend choice.
void InitFromEnvOnce() {
  std::call_once(g_env_once, [] {
    Backend b = Backend::kAuto;
    const char* env = std::getenv("HYPERTREE_KERNEL_BACKEND");
    if (env != nullptr && env[0] != '\0' && !ParseBackend(env, &b)) {
      metrics::GetCounter("kernels.dispatch.bad_env").Increment();
      b = Backend::kAuto;
    }
    Publish(b);
  });
}

}  // namespace

bool Avx2Available() { return internal::HaveAvx2(); }

Backend ResolveAuto() {
  return Avx2Available() ? Backend::kAvx2 : Backend::kScalar;
}

bool ParseBackend(const std::string& s, Backend* out) {
  if (s == "auto") {
    *out = Backend::kAuto;
  } else if (s == "scalar") {
    *out = Backend::kScalar;
  } else if (s == "avx2") {
    *out = Backend::kAvx2;
  } else {
    return false;
  }
  return true;
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAuto:
      return "auto";
  }
  return "unknown";
}

void SetBackend(Backend b) {
  std::call_once(g_env_once, [] {});  // explicit choice beats the env var
  Publish(b);
}

Backend ActiveBackend() {
  InitFromEnvOnce();
  return static_cast<Backend>(g_active.load(std::memory_order_relaxed));
}

const Ops& GetOps(Backend b) {
  if (b == Backend::kAuto) b = ResolveAuto();
  if (b == Backend::kAvx2 && !Avx2Available()) b = Backend::kScalar;
  switch (b) {
    case Backend::kAvx2:
      return Counted<Backend::kAvx2>::Table();
    default:
      return Counted<Backend::kScalar>::Table();
  }
}

const Ops& Active() {
  InitFromEnvOnce();
  return *g_active_ops.load(std::memory_order_acquire);
}

WordArena::WordArena(size_t nwords) {
  // Arenas always round up to whole 256-bit lanes (even one-word
  // arenas), so vector backends can load any row's lane in bounds.
  size_ = std::max<size_t>(nwords, 1);
  size_ = (size_ + kWordsPerLane - 1) &
          ~static_cast<size_t>(kWordsPerLane - 1);
  data_ = static_cast<uint64_t*>(
      ::operator new(size_ * sizeof(uint64_t), std::align_val_t{32}));
  std::memset(data_, 0, size_ * sizeof(uint64_t));
}

WordArena::WordArena(WordArena&& o) noexcept
    : data_(o.data_), size_(o.size_) {
  o.data_ = nullptr;
  o.size_ = 0;
}

WordArena& WordArena::operator=(WordArena&& o) noexcept {
  if (this == &o) return *this;
  if (data_ != nullptr) ::operator delete(data_, std::align_val_t{32});
  data_ = o.data_;
  size_ = o.size_;
  o.data_ = nullptr;
  o.size_ = 0;
  return *this;
}

WordArena::~WordArena() {
  if (data_ != nullptr) ::operator delete(data_, std::align_val_t{32});
}

namespace internal {

const Ops& ScalarRaw() {
  static const Ops table = {
      "scalar",
      scalar::OrReduceRows,
      scalar::OrReduceRowsFiltered,
      scalar::FrontierCommit,
      scalar::FilterRowsNotSubset,
      scalar::ScoreRows,
      scalar::MaxIntersect,
      scalar::AndCount,
      scalar::AndNotCount,
      scalar::IntersectCount,
      scalar::AndNotIsEmpty,
      scalar::PackKeys,
      scalar::ProbeKeys,
  };
  return table;
}

}  // namespace internal

}  // namespace hypertree::kernels
