// Randomized cross-backend equivalence for the kernel layer: every
// kernels::Ops primitive must produce byte-identical outputs (including
// the zero padding of the padded-capacity contract) on the scalar and
// AVX2 backends, over ragged universe sizes that hit the word boundaries
// (0, 1, 63, 64, 65, 127 bits) and a multi-lane size (4096 bits).

#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"

namespace hypertree {
namespace {

using kernels::Backend;
using kernels::GetOps;
using kernels::Ops;
using kernels::PaddedWords;

int WordsFor(int bits) { return (bits + 63) / 64; }

uint64_t TailMask(int bits) {
  const int rem = bits % 64;
  return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
}

// A padded, zero-initialized buffer of `nwords` logical words.
std::vector<uint64_t> PaddedBuffer(int nwords) {
  return std::vector<uint64_t>(
      static_cast<size_t>(PaddedWords(nwords)) + 1, 0);
}

// Random set over `bits` bits, bitset-style (tail bits of the last
// logical word zero, padding zero).
std::vector<uint64_t> RandomSet(int bits, Rng* rng) {
  const int nwords = WordsFor(bits);
  std::vector<uint64_t> out = PaddedBuffer(nwords);
  for (int i = 0; i < nwords; ++i) out[i] = rng->Next();
  if (nwords > 0) out[nwords - 1] &= TailMask(bits);
  return out;
}

// Row-major arena of `nrows` random rows over `bits` bits, packed with
// the same stride rule the incidence index uses (single-word rows pack
// contiguously, larger rows start on a fresh lane).
struct RowArena {
  std::vector<uint64_t> words;
  size_t stride = 1;
  int nrows = 0;
  int nwords = 0;
};

RowArena RandomRows(int bits, int nrows, Rng* rng) {
  RowArena a;
  a.nrows = nrows;
  a.nwords = WordsFor(bits);
  a.stride = a.nwords <= 1 ? 1 : static_cast<size_t>(PaddedWords(a.nwords));
  a.words.assign(std::max<size_t>(1, a.stride * nrows), 0);
  for (int r = 0; r < nrows; ++r) {
    uint64_t* row = a.words.data() + r * a.stride;
    for (int i = 0; i < a.nwords; ++i) row[i] = rng->Next();
    if (a.nwords > 0) row[a.nwords - 1] &= TailMask(bits);
  }
  return a;
}

const Backend kBackends[] = {Backend::kScalar, Backend::kAvx2};

struct Shape {
  int bits;
  int nrows;
};

// The word-boundary shapes plus multi-lane shapes: 4096-bit rows span
// sixteen 256-bit lanes, and 1200 of them make a many-row batch.
const Shape kShapes[] = {{0, 0},  {1, 1},    {63, 7},    {64, 64},
                         {65, 9}, {127, 33}, {4096, 12}, {4096, 1200}};

std::string Label(const Shape& s, Backend b) {
  return std::string(kernels::BackendName(b)) + " bits=" +
         std::to_string(s.bits) + " rows=" + std::to_string(s.nrows);
}

TEST(KernelsEquivalence, AllOpsMatchScalarOnRaggedShapes) {
  Rng rng(20240807);
  for (const Shape& shape : kShapes) {
    const int nwords = WordsFor(shape.bits);
    const int mask_words = WordsFor(shape.nrows);
    for (int trial = 0; trial < 4; ++trial) {
      RowArena rows = RandomRows(shape.bits, shape.nrows, &rng);
      std::vector<uint64_t> mask = RandomSet(shape.nrows, &rng);
      std::vector<uint64_t> conn = RandomSet(shape.bits, &rng);
      std::vector<uint64_t> filt = RandomSet(shape.bits, &rng);
      std::vector<uint64_t> sep = RandomSet(shape.bits, &rng);
      std::vector<int> idx;
      for (int r = 0; r < shape.nrows; ++r) {
        if (rng.UniformInt(2) == 0) idx.push_back(r);
      }

      // Scalar reference results.
      const Ops& ref = GetOps(Backend::kScalar);
      std::vector<uint64_t> ref_or = PaddedBuffer(nwords);
      int ref_or_n = ref.OrReduceRows(ref_or.data(), nwords,
                                      rows.words.data(), rows.stride,
                                      mask.data(), mask_words);
      std::vector<uint64_t> ref_orf = PaddedBuffer(nwords);
      bool ref_any = false;
      int ref_orf_n = ref.OrReduceRowsFiltered(
          ref_orf.data(), nwords, rows.words.data(), rows.stride, mask.data(),
          mask_words, filt.data(), &ref_any);
      std::vector<uint64_t> ref_acc = RandomSet(shape.bits, &rng);
      std::vector<uint64_t> ref_pending = RandomSet(shape.bits, &rng);
      std::vector<uint64_t> acc_seed = ref_acc, pending_seed = ref_pending;
      ref.FrontierCommit(ref_acc.data(), ref_pending.data(), conn.data(),
                         nwords);
      std::vector<uint64_t> ref_notsub = PaddedBuffer(mask_words);
      ref.FilterRowsNotSubset(ref_notsub.data(), rows.words.data(),
                              rows.stride, mask.data(), mask_words, sep.data(),
                              nwords);
      std::vector<int> ref_counts(std::max<size_t>(1, idx.size()), -1);
      ref.ScoreRows(ref_counts.data(), rows.words.data(), rows.stride,
                    idx.data(), static_cast<int>(idx.size()), conn.data(),
                    nwords);
      std::vector<int> ref_counts_dense(std::max(1, shape.nrows), -1);
      ref.ScoreRows(ref_counts_dense.data(), rows.words.data(), rows.stride,
                    nullptr, shape.nrows, conn.data(), nwords);
      int ref_max = ref.MaxIntersect(rows.words.data(), rows.stride,
                                     shape.nrows, conn.data(), nwords);
      std::vector<uint64_t> ref_and = PaddedBuffer(nwords);
      int ref_and_n = ref.AndCount(ref_and.data(), conn.data(), filt.data(),
                                   nwords);
      std::vector<uint64_t> ref_andnot = PaddedBuffer(nwords);
      int ref_andnot_n = ref.AndNotCount(ref_andnot.data(), conn.data(),
                                         filt.data(), nwords);
      int ref_ic = ref.IntersectCount(conn.data(), filt.data(), nwords);
      bool ref_empty = ref.AndNotIsEmpty(conn.data(), filt.data(), nwords);

      for (Backend b : kBackends) {
        const Ops& ops = GetOps(b);
        SCOPED_TRACE(Label(shape, b) + " trial=" + std::to_string(trial));

        std::vector<uint64_t> out = PaddedBuffer(nwords);
        EXPECT_EQ(ref_or_n,
                  ops.OrReduceRows(out.data(), nwords, rows.words.data(),
                                   rows.stride, mask.data(), mask_words));
        EXPECT_EQ(ref_or, out);  // byte-identical, padding included

        out = PaddedBuffer(nwords);
        bool any = !ref_any;
        EXPECT_EQ(ref_orf_n, ops.OrReduceRowsFiltered(
                                 out.data(), nwords, rows.words.data(),
                                 rows.stride, mask.data(), mask_words,
                                 filt.data(), &any));
        EXPECT_EQ(ref_orf, out);
        EXPECT_EQ(ref_any, any);

        std::vector<uint64_t> acc = acc_seed, pending = pending_seed;
        ops.FrontierCommit(acc.data(), pending.data(), conn.data(), nwords);
        EXPECT_EQ(ref_acc, acc);
        EXPECT_EQ(ref_pending, pending);

        out = PaddedBuffer(mask_words);
        ops.FilterRowsNotSubset(out.data(), rows.words.data(), rows.stride,
                                mask.data(), mask_words, sep.data(), nwords);
        EXPECT_EQ(ref_notsub, out);

        std::vector<int> counts(std::max<size_t>(1, idx.size()), -1);
        ops.ScoreRows(counts.data(), rows.words.data(), rows.stride,
                      idx.data(), static_cast<int>(idx.size()), conn.data(),
                      nwords);
        EXPECT_EQ(ref_counts, counts);

        counts.assign(std::max(1, shape.nrows), -1);
        ops.ScoreRows(counts.data(), rows.words.data(), rows.stride, nullptr,
                      shape.nrows, conn.data(), nwords);
        EXPECT_EQ(ref_counts_dense, counts);

        EXPECT_EQ(ref_max, ops.MaxIntersect(rows.words.data(), rows.stride,
                                            shape.nrows, conn.data(), nwords));

        out = PaddedBuffer(nwords);
        EXPECT_EQ(ref_and_n,
                  ops.AndCount(out.data(), conn.data(), filt.data(), nwords));
        EXPECT_EQ(ref_and, out);

        out = PaddedBuffer(nwords);
        EXPECT_EQ(ref_andnot_n, ops.AndNotCount(out.data(), conn.data(),
                                                filt.data(), nwords));
        EXPECT_EQ(ref_andnot, out);

        EXPECT_EQ(ref_ic,
                  ops.IntersectCount(conn.data(), filt.data(), nwords));
        EXPECT_EQ(ref_empty,
                  ops.AndNotIsEmpty(conn.data(), filt.data(), nwords));
      }
    }
  }
}

TEST(KernelsEquivalence, PackAndProbeKeysMatchScalar) {
  // Join-engine key primitives: packed keys, their min/max, the probe
  // ordinals AND the collision count must be backend-identical (the
  // engine's relation.probe_collisions totals are part of the
  // determinism contract, see tests/parallel_yannakakis_test.cc).
  Rng rng(20250808);
  // (arity, k, bits, nrows): the 40000-row shape is the long multi-lane
  // run; bits=16 with k=4 fills all 64 key bits.
  const int configs[][4] = {
      {1, 1, 1, 0},  {3, 2, 5, 1},    {4, 3, 7, 63},     {5, 4, 16, 1000},
      {2, 1, 20, 64}, {6, 5, 12, 257}, {3, 3, 10, 40000},
  };
  for (const auto& cfg : configs) {
    const int arity = cfg[0], k = cfg[1], bits = cfg[2], nrows = cfg[3];
    std::vector<int> pos;
    for (int i = 0; i < k; ++i) pos.push_back((i * 2) % arity);
    std::vector<int> rows(static_cast<size_t>(nrows) * arity);
    const uint64_t vmax = (uint64_t{1} << bits) - 1;
    for (int& v : rows) {
      v = static_cast<int>(rng.Next() & vmax & 0x7fffffffULL);
    }

    const Ops& ref = GetOps(Backend::kScalar);
    std::vector<uint64_t> ref_keys(std::max(1, nrows), ~uint64_t{0});
    uint64_t ref_mn = 0, ref_mx = 0;
    ref.PackKeys(ref_keys.data(), rows.data(), static_cast<size_t>(arity),
                 pos.data(), k, bits, nrows, &ref_mn, &ref_mx);

    // A hash table over a subset of the keys (every third row), built
    // once: probes hit and miss both.
    size_t cap = 16;
    while (cap < static_cast<size_t>(nrows) * 2) cap <<= 1;
    const uint64_t mask = cap - 1;
    std::vector<uint64_t> slot_keys(cap, 0);
    std::vector<int32_t> slot_vals(cap, -1);
    int32_t next_ord = 0;
    for (int r = 0; r < nrows; r += 3) {
      const uint64_t key = ref_keys[r];
      size_t slot = kernels::SplitMix64(key) & mask;
      while (slot_vals[slot] != -1 && slot_keys[slot] != key) {
        slot = (slot + 1) & mask;
      }
      if (slot_vals[slot] == -1) {
        slot_vals[slot] = next_ord++;
        slot_keys[slot] = key;
      }
    }
    std::vector<int32_t> ref_vals(std::max(1, nrows), -2);
    const long ref_coll =
        ref.ProbeKeys(ref_vals.data(), ref_keys.data(), nrows,
                      slot_keys.data(), slot_vals.data(), mask);

    for (Backend b : kBackends) {
      const Ops& ops = GetOps(b);
      SCOPED_TRACE(std::string(kernels::BackendName(b)) +
                   " arity=" + std::to_string(arity) + " k=" +
                   std::to_string(k) + " bits=" + std::to_string(bits) +
                   " nrows=" + std::to_string(nrows));
      std::vector<uint64_t> keys(std::max(1, nrows), ~uint64_t{0});
      uint64_t mn = 123, mx = 456;
      ops.PackKeys(keys.data(), rows.data(), static_cast<size_t>(arity),
                   pos.data(), k, bits, nrows, &mn, &mx);
      EXPECT_EQ(ref_keys, keys);
      EXPECT_EQ(ref_mn, mn);
      EXPECT_EQ(ref_mx, mx);

      std::vector<int32_t> vals(std::max(1, nrows), -2);
      EXPECT_EQ(ref_coll,
                ops.ProbeKeys(vals.data(), keys.data(), nrows,
                              slot_keys.data(), slot_vals.data(), mask));
      EXPECT_EQ(ref_vals, vals);
    }
  }
}

TEST(KernelsEquivalence, AliasedFusedOpsMatch) {
  // AndCount / AndNotCount allow dst to alias either input.
  Rng rng(7);
  for (int bits : {64, 127, 4096}) {
    const int nwords = WordsFor(bits);
    std::vector<uint64_t> a = RandomSet(bits, &rng);
    std::vector<uint64_t> b = RandomSet(bits, &rng);
    for (Backend back : kBackends) {
      const Ops& ops = GetOps(back);
      std::vector<uint64_t> expect = PaddedBuffer(nwords);
      int n = GetOps(Backend::kScalar)
                  .AndCount(expect.data(), a.data(), b.data(), nwords);
      std::vector<uint64_t> dst = a;
      EXPECT_EQ(n, ops.AndCount(dst.data(), dst.data(), b.data(), nwords));
      EXPECT_EQ(expect, dst) << kernels::BackendName(back);
    }
  }
}

TEST(KernelsDispatch, ParseAndNames) {
  Backend b = Backend::kScalar;
  EXPECT_TRUE(kernels::ParseBackend("auto", &b));
  EXPECT_EQ(Backend::kAuto, b);
  EXPECT_TRUE(kernels::ParseBackend("scalar", &b));
  EXPECT_EQ(Backend::kScalar, b);
  EXPECT_TRUE(kernels::ParseBackend("avx2", &b));
  EXPECT_EQ(Backend::kAvx2, b);
  EXPECT_FALSE(kernels::ParseBackend("batched", &b));
  EXPECT_FALSE(kernels::ParseBackend("gpu", &b));
  EXPECT_FALSE(kernels::ParseBackend("", &b));
  for (Backend x : kBackends) {
    Backend parsed = Backend::kAuto;
    EXPECT_TRUE(kernels::ParseBackend(kernels::BackendName(x), &parsed));
    EXPECT_EQ(x, parsed);
  }
}

TEST(KernelsDispatch, SetBackendControlsActive) {
  kernels::SetBackend(Backend::kScalar);
  EXPECT_EQ(Backend::kScalar, kernels::ActiveBackend());
  EXPECT_STREQ("scalar", kernels::Active().name);
  kernels::SetBackend(Backend::kAuto);
  EXPECT_EQ(kernels::ResolveAuto(), kernels::ActiveBackend());
  // AVX2 requests fall back to scalar when the CPU lacks the feature.
  kernels::SetBackend(Backend::kAvx2);
  if (kernels::Avx2Available()) {
    EXPECT_STREQ("avx2", kernels::Active().name);
  } else {
    EXPECT_STREQ("scalar", kernels::Active().name);
  }
  kernels::SetBackend(Backend::kAuto);
}

}  // namespace
}  // namespace hypertree
