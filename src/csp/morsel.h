// Chunked (morsel) relation infrastructure for the larger-than-core join
// engine: the per-query memory budget, the spill-file abstraction, and
// ChunkedRelation — a relation stored as a sequence of fixed-size row
// chunks that are either resident (a plain Relation) or spilled to a
// temp file in morsel-index order.
//
// Determinism contract (docs/SOLVING.md): every spill decision is a pure
// function of the input sizes and the configured budget — never of
// runtime residency, thread count, or schedule — and chunk contents are
// identical whether they live in RAM or on disk. Answers are therefore
// bit-identical for any --threads N, spill-on and spill-off.
//
// The engine feeds the metrics registry: relation.morsels.processed,
// relation.morsels.skipped (zone-map skips), relation.spill.partitions
// and relation.spill.bytes.

#ifndef HYPERTREE_CSP_MORSEL_H_
#define HYPERTREE_CSP_MORSEL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "csp/relation.h"
#include "util/metrics.h"

namespace hypertree {

class ThreadPool;

/// Rows per morsel (one work item of the within-bag parallel loops, and
/// one chunk of a spilled ChunkedRelation). Fixed — never derived from
/// the thread count — so the morsel decomposition, the per-morsel
/// zone-map decisions and every counter total are schedule-independent.
inline constexpr int kMorselRows = 4096;

/// Row range [lo, hi) of one morsel.
struct Morsel {
  int lo = 0;
  int hi = 0;
  int size() const { return hi - lo; }
};

// The morsel decomposition, computed here and nowhere else: a relation
// of `rows` rows splits into MorselCount(rows) morsels, and morsel m
// covers rows [m * kMorselRows, min((m + 1) * kMorselRows, rows)).

/// Number of morsels covering `rows` rows.
int MorselCount(long rows);

/// Row range of morsel `m` of a `rows`-row relation.
Morsel MorselAt(int m, long rows);

/// Morsel `m`'s first row in `r`'s flat row-major buffer (the buffer base
/// when `r` has no rows or no columns).
const int* MorselData(const Relation& r, int m);

/// Calls visit(m, lo, hi) once per morsel of a `rows`-row relation
/// through ParallelFor on `pool` (nullptr: in ascending order on the
/// calling thread). Safe to call from inside a pool task.
void ForEachMorsel(long rows, ThreadPool* pool,
                   const std::function<void(int m, int lo, int hi)>& visit);

/// Per-query memory budget in bytes (0 = unlimited): the threshold above
/// which join outputs spill to disk and semijoin build tables switch to
/// grace (radix) partitioning. First use resolves HYPERTREE_MEMORY_BUDGET
/// ("268435456", "256m", "4g", ... — suffixes k/m/g) unless a tool
/// already called SetMemoryBudget (--memory-budget beats the env var,
/// like the kernel backend selection).
long long MemoryBudget();

/// Overrides the budget (bytes; 0 = unlimited). Thread-safe; intended
/// for tool startup and tests.
void SetMemoryBudget(long long bytes);

/// Parses a byte size with an optional k/m/g suffix (case-insensitive).
/// Returns false on malformed input or a negative size.
bool ParseByteSize(const std::string& s, long long* out);

/// Directory for spill files: HYPERTREE_SPILL_DIR, else TMPDIR, else
/// /tmp. The engine creates unlinked temp files there, so nothing
/// survives the process whatever the exit path.
std::string SpillDir();

// Engine counters (process-wide, see docs/BENCHMARKS.md).
metrics::Counter& MorselsProcessed();
metrics::Counter& MorselsSkipped();
metrics::Counter& SpillPartitions();
metrics::Counter& SpillBytes();

/// An unlinked temp file with positioned, thread-safe chunk IO: writers
/// reserve disjoint ranges with Allocate() and pwrite them concurrently;
/// readers pread by recorded offset. IO failures are fatal (HT_CHECK) —
/// a partial spill could silently corrupt answers.
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Creates (and immediately unlinks) the temp file. Idempotent.
  void Open();
  bool IsOpen() const { return fd_ != -1; }

  /// Reserves `bytes` bytes of file range; returns its start offset.
  long long Allocate(long long bytes);

  void WriteAt(long long offset, const void* data, size_t bytes);
  void ReadAt(long long offset, void* data, size_t bytes) const;

 private:
  int fd_ = -1;
  std::atomic<long long> cursor_{0};
};

/// A relation as a sequence of row chunks: either fully resident (a
/// plain Relation, viewed as kMorselRows-sized chunks) or fully spilled
/// (per-chunk byte ranges in a shared SpillFile, read back in chunk
/// order). Whole-relation residency is decided once, from exact
/// pre-pass sizes — see the determinism contract above.
class ChunkedRelation {
 public:
  ChunkedRelation() = default;

  /// Resident form: wraps the relation, chunked into kMorselRows views.
  explicit ChunkedRelation(Relation rel) : rel_(std::move(rel)) {}

  /// Spilled form over `file` (opened by the caller); chunks are
  /// registered with SetChunk after ResizeChunks.
  ChunkedRelation(std::vector<int> schema, std::shared_ptr<SpillFile> file)
      : spilled_(true), schema_(std::move(schema)), file_(std::move(file)) {}

  bool spilled() const { return spilled_; }
  const std::vector<int>& schema() const {
    return spilled_ ? schema_ : rel_.schema();
  }
  int Arity() const { return static_cast<int>(schema().size()); }
  long TotalRows() const;
  int NumChunks() const;
  int ChunkRows(int i) const;

  /// Pointer to chunk i's row-major data (ChunkRows(i) * Arity()
  /// values). Resident chunks alias the relation buffer; spilled chunks
  /// are read into *scratch. Thread-safe for concurrent chunks.
  const int* LoadChunk(int i, std::vector<int>* scratch) const;

  /// Spilled form: pre-sizes the chunk table so parallel emitters can
  /// SetChunk disjoint slots.
  void ResizeChunks(int n) { chunks_.resize(static_cast<size_t>(n)); }
  void SetChunk(int i, long long offset, int rows) {
    chunks_[static_cast<size_t>(i)] = {offset, rows};
  }
  /// Recomputes the cached row total after SetChunk writes (spilled).
  void FinishChunks();

  /// The resident relation (resident form only).
  const Relation& rel() const {
    HT_CHECK(!spilled_);
    return rel_;
  }
  Relation TakeRel() {
    HT_CHECK(!spilled_);
    return std::move(rel_);
  }

  /// Materializes a spilled relation back into RAM (generic-fallback and
  /// final-answer paths); resident form moves out for free.
  Relation ToRelation() &&;

 private:
  bool spilled_ = false;
  Relation rel_;              // resident form
  std::vector<int> schema_;   // spilled form
  std::shared_ptr<SpillFile> file_;
  struct Chunk {
    long long offset = 0;
    int rows = 0;
  };
  std::vector<Chunk> chunks_;
  long total_rows_ = 0;  // spilled form (resident derives from rel_)
};

}  // namespace hypertree

#endif  // HYPERTREE_CSP_MORSEL_H_
