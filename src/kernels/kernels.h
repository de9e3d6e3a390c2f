// Backend-dispatch kernel layer for the bulk data-parallel primitives
// the decomposition searches and the relational engine run: multi-row
// AND/OR/ANDNOT with fused popcount, N-way OR-reduce over incidence
// rows, batched BFS frontier expansion, batched candidate scoring, and
// the join-engine key primitives (pack row keys into words, probe an
// open-addressed key table).
//
// The API is deliberately GPU-shaped (docs/KERNELS.md):
//
//   * every op is a pure data-parallel function over caller-owned word
//     buffers — no hidden allocation, no retained state, no ordering
//     dependence between output elements;
//   * rows live in flat row-major arenas (row r at rows + r * stride)
//     so a backend can stream or vectorize them without touching the
//     Bitset object layout;
//   * buffers follow the padded-capacity contract: any buffer holding
//     `nwords` logical words is allocated with PaddedWords(nwords)
//     words and the padding words are zero. Bitset heap storage and
//     WordArena both guarantee this, which lets vector backends process
//     whole 256-bit lanes with no scalar tail.
//
// Two backends ship behind runtime dispatch:
//
//   scalar   one word at a time; the bit-identical reference oracle.
//   avx2     explicit 256-bit vectors over the same word layout
//            (compiled with per-function target attributes, selected
//            only when the CPU reports AVX2).
//
// Both backends produce byte-identical outputs for identical inputs;
// tests/kernels_equivalence_test.cc hammers that invariant on ragged
// sizes. Every op runs in the calling thread; parallelism belongs to the
// callers, which split their work on their own ThreadPool (the join
// engine issues one PackKeys / ProbeKeys call per morsel).

#ifndef HYPERTREE_KERNELS_KERNELS_H_
#define HYPERTREE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace hypertree::kernels {

/// splitmix64 finalizer (Steele et al.): the canonical 64-bit mixer for
/// every hash table in the repo. hypertree::SplitMix64 (csp/relation.h)
/// aliases this definition, and the ProbeKeys kernels reproduce it
/// vector-wide — the three must stay bit-identical or packed-key tables
/// built by one layer become unprobable by another.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Kernel backend identifiers. kAuto resolves at dispatch time to the
/// best backend the CPU supports (avx2 when available, else scalar).
enum class Backend { kScalar = 0, kAvx2 = 1, kAuto = 2 };

/// Words per allocation granule: 4 words = 256 bits = one AVX2 lane.
inline constexpr int kWordsPerLane = 4;

/// Allocation capacity (in words) for a buffer of `nwords` logical
/// words under the padded-capacity contract. One-word buffers stay
/// one word (they may live inline in a Bitset); larger buffers round
/// up to a whole number of 256-bit lanes.
constexpr int PaddedWords(int nwords) {
  return nwords <= 1 ? nwords : (nwords + kWordsPerLane - 1) & ~(kWordsPerLane - 1);
}

/// Dispatch table of bulk bitwise primitives. Every function is pure:
/// results depend only on the argument values, never on the backend,
/// the thread count, or call history.
struct Ops {
  const char* name;

  /// dst = OR of rows[v] over the set bits v of `mask` (mask_words
  /// words); dst (nwords logical words) is cleared first. Returns the
  /// number of rows OR'd. The EdgesTouching / VarsOfEdges primitive.
  int (*OrReduceRows)(uint64_t* dst, int nwords, const uint64_t* rows,
                      size_t stride, const uint64_t* mask, int mask_words);

  /// dst = (OR of rows[v] over set bits v of `mask`) & filter, dst
  /// overwritten; *out_any reports whether any bit survived. Returns
  /// the number of rows OR'd. The batched BFS frontier-expansion
  /// primitive (expand a whole frontier, mask by the not-yet-assigned
  /// set, in one call).
  int (*OrReduceRowsFiltered)(uint64_t* dst, int nwords,
                              const uint64_t* rows, size_t stride,
                              const uint64_t* mask, int mask_words,
                              const uint64_t* filter, bool* out_any);

  /// BFS commit: acc |= reach and pending &= ~reach in one pass.
  void (*FrontierCommit)(uint64_t* acc, uint64_t* pending,
                         const uint64_t* reach, int nwords);

  /// For each set bit v of `mask`: sets bit v of out_mask iff
  /// (rows[v] & ~b) is non-empty. out_mask (mask_words words) is
  /// cleared first. Multi-row ANDNOT with fused emptiness test — the
  /// component-split seeding primitive (edges not inside a separator).
  void (*FilterRowsNotSubset)(uint64_t* out_mask, const uint64_t* rows,
                              size_t stride, const uint64_t* mask,
                              int mask_words, const uint64_t* b, int nwords);

  /// counts[i] = popcount(rows[idx[i]] & conn) for i in [0, k); idx ==
  /// nullptr means rows 0..k-1. The batched candidate-evaluation
  /// primitive: many separator/cover candidates scored per call.
  void (*ScoreRows)(int* counts, const uint64_t* rows, size_t stride,
                    const int* idx, int k, const uint64_t* conn, int nwords);

  /// max over r in [0, nrows) of popcount(rows[r] & conn); 0 when
  /// nrows == 0.
  int (*MaxIntersect)(const uint64_t* rows, size_t stride, int nrows,
                      const uint64_t* conn, int nwords);

  /// dst = a & b with fused popcount (dst may alias a or b).
  int (*AndCount)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                  int nwords);

  /// popcount(a & b) without materializing the intersection.
  int (*IntersectCount)(const uint64_t* a, const uint64_t* b, int nwords);

  /// Join-engine key materialization: keys[r] = the k values
  /// rows[r * stride + pos[i]] packed big-endian (pos[0] in the top
  /// bits), `bits` bits per value, for r in [0, nrows); k = 0 packs every
  /// row to 0. The caller guarantees every key value lies in [0, 2^bits)
  /// and k * bits <= 64.
  /// *out_min / *out_max receive the min / max packed key (the morsel
  /// zone-map metadata); an empty range yields min = ~0, max = 0.
  void (*PackKeys)(uint64_t* keys, const int* rows, size_t stride,
                   const int* pos, int k, int bits, int nrows,
                   uint64_t* out_min, uint64_t* out_max);

  /// Join-engine hash probe: for each packed key keys[r], linear-probes
  /// the open-addressed table (capacity mask + 1 slots, hash =
  /// SplitMix64(key) & mask, slot_vals[s] == -1 marks an empty slot) and
  /// writes the matching slot's value to out_val[r], or -1 when the key
  /// is absent. Returns the total number of occupied non-matching slots
  /// stepped past (the relation.probe_collisions contribution) —
  /// identical for every backend and schedule.
  long (*ProbeKeys)(int32_t* out_val, const uint64_t* keys, int nrows,
                    const uint64_t* slot_keys, const int32_t* slot_vals,
                    uint64_t mask);
};

/// True when the running CPU supports the AVX2 backend.
bool Avx2Available();

/// The backend kAuto resolves to on this machine.
Backend ResolveAuto();

/// Parses "auto" / "scalar" / "avx2" (the --kernel-backend flag values).
/// Returns false on anything else.
bool ParseBackend(const std::string& s, Backend* out);

/// Stable lowercase name ("scalar", "avx2", "auto").
const char* BackendName(Backend b);

/// Selects the process-wide active backend. kAuto (the default) picks
/// ResolveAuto(); requesting kAvx2 on a CPU without AVX2 falls back to
/// scalar (recorded in the kernels.dispatch.* counters). Thread-safe;
/// intended to be called once at startup (tools) or per test.
void SetBackend(Backend b);

/// The currently active backend (after auto resolution).
Backend ActiveBackend();

/// Dispatch table of the active backend. The first call resolves the
/// HYPERTREE_KERNEL_BACKEND environment variable, so tools that never
/// pass --kernel-backend still honor a forced backend (bench smoke).
const Ops& Active();

/// Dispatch table of a specific backend (kAuto resolves first).
/// Requesting kAvx2 without CPU support returns the scalar table.
const Ops& GetOps(Backend b);

/// A 32-byte-aligned, zero-initialized word buffer for row-major
/// kernel arenas. Satisfies the padded-capacity contract for any row
/// layout whose stride is a PaddedWords() multiple (or 1 for packed
/// single-word rows).
class WordArena {
 public:
  WordArena() = default;
  explicit WordArena(size_t nwords);
  WordArena(WordArena&& o) noexcept;
  WordArena& operator=(WordArena&& o) noexcept;
  WordArena(const WordArena&) = delete;
  WordArena& operator=(const WordArena&) = delete;
  ~WordArena();

  uint64_t* data() { return data_; }
  const uint64_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  uint64_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace hypertree::kernels

#endif  // HYPERTREE_KERNELS_KERNELS_H_
