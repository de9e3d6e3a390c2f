#include "csp/morsel.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <mutex>

#include "util/check.h"

namespace hypertree {

namespace {

// Budget state mirrors the kernel-backend dispatch pattern: an explicit
// SetMemoryBudget consumes the once-flag, so the environment variable
// never overrides a tool's --memory-budget choice.
std::atomic<long long> g_budget{0};
std::once_flag g_budget_once;

void InitBudgetFromEnvOnce() {
  std::call_once(g_budget_once, [] {
    const char* env = std::getenv("HYPERTREE_MEMORY_BUDGET");
    if (env == nullptr || env[0] == '\0') return;
    long long bytes = 0;
    if (ParseByteSize(env, &bytes)) {
      g_budget.store(bytes, std::memory_order_relaxed);
    } else {
      metrics::GetCounter("relation.spill.bad_env_budget").Increment();
    }
  });
}

}  // namespace

long long MemoryBudget() {
  InitBudgetFromEnvOnce();
  return g_budget.load(std::memory_order_relaxed);
}

void SetMemoryBudget(long long bytes) {
  std::call_once(g_budget_once, [] {});  // explicit choice beats the env
  g_budget.store(bytes < 0 ? 0 : bytes, std::memory_order_relaxed);
}

int MorselCount(long rows) {
  return static_cast<int>((rows + kMorselRows - 1) / kMorselRows);
}

Morsel MorselAt(int m, long rows) {
  const long lo = static_cast<long>(m) * kMorselRows;
  return {static_cast<int>(lo),
          static_cast<int>(std::min<long>(lo + kMorselRows, rows))};
}

const int* MorselData(const Relation& r, int m) {
  if (r.Arity() == 0 || r.Empty()) return r.data().data();
  return r.Row(m * kMorselRows);
}

ValueRange ScanValues(const int* p, size_t n) {
  // Local accumulators: gcc vectorizes this loop, not one that folds
  // into the fields of the returned struct.
  int mn = 0;
  int mx = 0;
  for (size_t i = 0; i < n; ++i) {
    mn = std::min(mn, p[i]);
    mx = std::max(mx, p[i]);
  }
  return {mn, mx};
}

bool ParseByteSize(const std::string& s, long long* out) {
  if (s.empty()) return false;
  size_t end = s.size();
  long long mult = 1;
  const char last = s[end - 1];
  if (last == 'k' || last == 'K') {
    mult = 1LL << 10;
    --end;
  } else if (last == 'm' || last == 'M') {
    mult = 1LL << 20;
    --end;
  } else if (last == 'g' || last == 'G') {
    mult = 1LL << 30;
    --end;
  }
  if (end == 0) return false;
  long long value = 0;
  for (size_t i = 0; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    if (value > (1LL << 53)) return false;  // refuse absurd sizes
    value = value * 10 + (s[i] - '0');
  }
  if (value > LLONG_MAX / mult) return false;  // the product would overflow
  *out = value * mult;
  return true;
}

std::string SpillDir() {
  const char* dir = std::getenv("HYPERTREE_SPILL_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  dir = std::getenv("TMPDIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  return "/tmp";
}

metrics::Counter& MorselsProcessed() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.morsels.processed");
  return c;
}
metrics::Counter& MorselsSkipped() {
  static metrics::Counter& c = metrics::GetCounter("relation.morsels.skipped");
  return c;
}
metrics::Counter& SpillPartitions() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.spill.partitions");
  return c;
}
metrics::Counter& SpillBytes() {
  static metrics::Counter& c = metrics::GetCounter("relation.spill.bytes");
  return c;
}

SpillFile::~SpillFile() {
  if (fd_ != -1) ::close(fd_);
}

void SpillFile::Open() {
  if (fd_ != -1) return;
  std::string path = SpillDir() + "/ht-spill-XXXXXX";
  // mkstemp wants a mutable template; the string buffer is one.
  fd_ = ::mkstemp(path.data());
  HT_CHECK_MSG(fd_ != -1, "morsel engine: cannot create a spill file");
  // Unlink immediately: the kernel reclaims the blocks when the fd
  // closes, whatever the process exit path.
  ::unlink(path.c_str());
}

long long SpillFile::Allocate(long long bytes) {
  HT_DCHECK_GE(bytes, 0);
  return cursor_.fetch_add(bytes, std::memory_order_relaxed);
}

void SpillFile::WriteAt(long long offset, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  size_t left = bytes;
  long long off = offset;
  while (left > 0) {
    const ssize_t n = ::pwrite(fd_, p, left, off);
    HT_CHECK_MSG(n > 0, "morsel engine: spill write failed");
    p += n;
    off += n;
    left -= static_cast<size_t>(n);
  }
}

void SpillFile::ReadAt(long long offset, void* data, size_t bytes) const {
  char* p = static_cast<char*>(data);
  size_t left = bytes;
  long long off = offset;
  while (left > 0) {
    const ssize_t n = ::pread(fd_, p, left, off);
    HT_CHECK_MSG(n > 0, "morsel engine: spill read failed");
    p += n;
    off += n;
    left -= static_cast<size_t>(n);
  }
}

long ChunkedRelation::TotalRows() const {
  return spilled_ ? total_rows_ : static_cast<long>(rel_.Size());
}

int ChunkedRelation::NumChunks() const {
  if (spilled_) return static_cast<int>(chunks_.size());
  return MorselCount(rel_.Size());
}

int ChunkedRelation::ChunkRows(int i) const {
  if (spilled_) return chunks_[static_cast<size_t>(i)].rows;
  return MorselAt(i, rel_.Size()).size();
}

const int* ChunkedRelation::LoadChunk(int i, std::vector<int>* scratch) const {
  if (!spilled_) return MorselData(rel_, i);
  const Chunk& c = chunks_[static_cast<size_t>(i)];
  const size_t values = static_cast<size_t>(c.rows) * schema_.size();
  scratch->resize(values);
  if (values > 0) {
    file_->ReadAt(c.offset, scratch->data(), values * sizeof(int));
  }
  return scratch->data();
}

void ChunkedRelation::WriteChunk(int i, const int* data, int rows) {
  Chunk& c = chunks_[static_cast<size_t>(i)];
  c.rows = rows;
  if (rows == 0) return;
  const size_t values = static_cast<size_t>(rows) * schema_.size();
  c.values = ScanValues(data, values);
  c.offset = file_->Allocate(static_cast<long long>(values * sizeof(int)));
  file_->WriteAt(c.offset, data, values * sizeof(int));
}

void ChunkedRelation::FinishChunks() {
  long total = 0;
  for (const Chunk& c : chunks_) total += c.rows;
  total_rows_ = total;
}

Relation ChunkedRelation::ToRelation() && {
  if (!spilled_) return std::move(rel_);
  Relation out(schema_);
  out.Reserve(static_cast<int>(total_rows_));
  std::vector<int> scratch;
  const int arity = Arity();
  for (int i = 0; i < NumChunks(); ++i) {
    const int rows = ChunkRows(i);
    const int* data = LoadChunk(i, &scratch);
    for (int r = 0; r < rows; ++r) {
      out.AddRow(data + static_cast<size_t>(r) * arity);
    }
  }
  return out;
}

}  // namespace hypertree
