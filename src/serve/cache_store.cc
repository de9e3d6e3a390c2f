#include "serve/cache_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "io/ghd_format.h"
#include "td/tree_decomposition.h"
#include "util/check.h"
#include "util/json.h"
#include "util/metrics.h"

namespace hypertree::serve {

namespace {

// One on-disk entry as seen by the eviction scan: its key, the summed
// size of its files, and the meta file's mtime (the LRU recency stamp).
struct DiskEntry {
  std::string key;
  long long bytes = 0;
  std::filesystem::file_time_type mtime;
};

// Enumerates committed entries (those with a .json meta file) under the
// two-hex-digit fanout directories. Unreadable files are skipped — a
// concurrent eviction or an in-flight .tmp rename is not an error.
std::vector<DiskEntry> ScanEntries(const std::string& dir) {
  std::vector<DiskEntry> entries;
  std::error_code ec;
  for (const auto& shard : std::filesystem::directory_iterator(dir, ec)) {
    if (!shard.is_directory(ec)) continue;
    for (const auto& file :
         std::filesystem::directory_iterator(shard.path(), ec)) {
      const std::filesystem::path& p = file.path();
      if (p.extension() != ".json") continue;
      DiskEntry entry;
      entry.key = p.stem().string();
      entry.mtime = std::filesystem::last_write_time(p, ec);
      if (ec) continue;
      entry.bytes = static_cast<long long>(std::filesystem::file_size(p, ec));
      if (ec) continue;
      std::filesystem::path ghd = p;
      ghd.replace_extension(".ghd");
      const auto ghd_bytes = std::filesystem::file_size(ghd, ec);
      if (!ec) entry.bytes += static_cast<long long>(ghd_bytes);
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

constexpr int kFieldBits = 15;
constexpr int kFieldMask = (1 << kFieldBits) - 1;

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return in.good() || in.eof();
}

// Writes `data` to `path` atomically: temp file in the same directory,
// then rename (POSIX rename replaces the target atomically).
bool WriteFileAtomic(const std::string& path, const std::string& data,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      SetError(error, "cannot open " + tmp + " for writing");
      return false;
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out.good()) {
      SetError(error, "short write to " + tmp);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    SetError(error, "rename " + tmp + " -> " + path + ": " + ec.message());
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

// Reads the integer meta field `name` into `*out`, leaving `*out` as is
// when the field is absent. False when the field is not an integer in
// [0, max]; the range is checked on the parsed value before it narrows.
bool ReadMetaInt(const Json& meta, const char* name, long max, int* out) {
  const Json* field = meta.Find(name);
  if (field == nullptr) return true;
  if (field->type() != Json::Type::kInt) return false;
  const long value = field->AsInt();
  if (value < 0 || value > max) return false;
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

std::optional<StoredWitness> ParseStoredMeta(const std::string& meta_text,
                                             const std::string& canonical_text,
                                             std::string* error) {
  std::string parse_error;
  std::optional<Json> meta = Json::Parse(meta_text, &parse_error);
  if (!meta.has_value()) {
    SetError(error, "corrupt meta: " + parse_error);
    return std::nullopt;
  }
  if (!meta->is_object()) {
    SetError(error, "corrupt meta: not a JSON object");
    return std::nullopt;
  }
  const Json* stored_instance = meta->Find("instance");
  if (stored_instance == nullptr ||
      stored_instance->AsString() != canonical_text) {
    // Either truncated meta or a (vanishingly unlikely) hash collision:
    // the entry is not for this instance, so it must not answer.
    SetError(error, "instance text mismatch");
    return std::nullopt;
  }
  StoredWitness witness;
  constexpr long kMaxCount = std::numeric_limits<int>::max();
  const struct {
    const char* name;
    int* out;
    long max;
  } fields[] = {{"width", &witness.meta.width, kFieldMask},
                {"lower_bound", &witness.meta.lower_bound, kFieldMask},
                {"vertices", &witness.vertices, kMaxCount},
                {"edges", &witness.edges, kMaxCount}};
  for (const auto& field : fields) {
    if (!ReadMetaInt(*meta, field.name, field.max, field.out)) {
      SetError(error, std::string("corrupt meta: ") + field.name +
                          " is not an integer in [0, " +
                          std::to_string(field.max) + "]");
      return std::nullopt;
    }
  }
  if (const Json* f = meta->Find("exact")) witness.meta.exact = f->AsBool();
  if (const Json* f = meta->Find("solver")) witness.solver = f->AsString();
  return witness;
}

int PackMeta(const WitnessMeta& meta) {
  HT_CHECK(meta.width >= 0 && meta.width <= kFieldMask)
      << "width out of packable range: " << meta.width;
  HT_CHECK(meta.lower_bound >= 0 && meta.lower_bound <= kFieldMask)
      << "lower bound out of packable range: " << meta.lower_bound;
  return meta.width | (meta.lower_bound << kFieldBits) |
         (meta.exact ? 1 << (2 * kFieldBits) : 0);
}

WitnessMeta UnpackMeta(int packed) {
  WitnessMeta meta;
  meta.width = packed & kFieldMask;
  meta.lower_bound = (packed >> kFieldBits) & kFieldMask;
  meta.exact = ((packed >> (2 * kFieldBits)) & 1) != 0;
  return meta;
}

CachedSubtree SubtreeFromGhd(const GeneralizedHypertreeDecomposition& ghd) {
  const TreeDecomposition& td = ghd.td();
  const int num_nodes = td.NumNodes();
  CachedSubtree subtree;
  subtree.chi.reserve(num_nodes);
  subtree.lambda.reserve(num_nodes);
  subtree.parent.reserve(num_nodes);

  // Iterative DFS from the lowest-index unvisited node of each tree
  // component. Children are pushed in reverse neighbor order so they pop
  // (and get numbered) in ascending-neighbor order: the output order is
  // a pure function of the tree structure, independent of how the GHD's
  // node ids were assigned relative to each other within a visit.
  std::vector<int> order_of(num_nodes, -1);
  for (int root = 0; root < num_nodes; ++root) {
    if (order_of[root] != -1) continue;
    std::vector<std::pair<int, int>> stack;  // (node, parent subtree index)
    stack.emplace_back(root, -1);
    while (!stack.empty()) {
      auto [node, parent_index] = stack.back();
      stack.pop_back();
      if (order_of[node] != -1) continue;
      order_of[node] = static_cast<int>(subtree.chi.size());
      subtree.chi.push_back(td.Bag(node));
      subtree.lambda.push_back(ghd.Lambda(node));
      subtree.parent.push_back(parent_index);
      const std::vector<int>& neighbors = td.TreeNeighbors(node);
      for (auto it = neighbors.rbegin(); it != neighbors.rend(); ++it) {
        if (order_of[*it] == -1) stack.emplace_back(*it, order_of[node]);
      }
    }
  }
  return subtree;
}

GeneralizedHypertreeDecomposition GhdFromSubtree(const CachedSubtree& subtree) {
  const int num_nodes = static_cast<int>(subtree.chi.size());
  HT_CHECK_EQ(subtree.lambda.size(), subtree.chi.size());
  HT_CHECK_EQ(subtree.parent.size(), subtree.chi.size());
  const int num_vertices = num_nodes > 0 ? subtree.chi[0].size() : 0;
  TreeDecomposition td(num_vertices);
  for (int p = 0; p < num_nodes; ++p) td.AddNode(subtree.chi[p]);
  for (int p = 0; p < num_nodes; ++p) {
    if (subtree.parent[p] >= 0) {
      HT_CHECK_LT(subtree.parent[p], p) << "subtree not parent-first";
      td.AddTreeEdge(subtree.parent[p], p);
    }
  }
  GeneralizedHypertreeDecomposition ghd(std::move(td));
  for (int p = 0; p < num_nodes; ++p) ghd.SetLambda(p, subtree.lambda[p]);
  return ghd;
}

std::string CanonicalWitnessText(const CachedSubtree& subtree,
                                 const Hypergraph& h) {
  return WriteGhdToString(GhdFromSubtree(subtree), h);
}

PersistentCacheStore::PersistentCacheStore(std::string dir,
                                           long long max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {}

long long PersistentCacheStore::DiskUsageBytes() const {
  if (!enabled()) return 0;
  long long total = 0;
  for (const DiskEntry& entry : ScanEntries(dir_)) total += entry.bytes;
  return total;
}

void PersistentCacheStore::EvictToCap(const std::string& protect_key) const {
  std::vector<DiskEntry> entries = ScanEntries(dir_);
  long long total = 0;
  for (const DiskEntry& entry : entries) total += entry.bytes;
  if (total <= max_bytes_) return;
  // Oldest recency stamp first; key order breaks mtime ties so the
  // eviction order is deterministic on coarse-mtime filesystems.
  std::sort(entries.begin(), entries.end(),
            [](const DiskEntry& a, const DiskEntry& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.key < b.key;
            });
  for (const DiskEntry& entry : entries) {
    if (total <= max_bytes_) break;
    if (entry.key == protect_key) continue;
    // Meta first: Load treats it as the commit marker, so a crash
    // mid-eviction leaves an orphan .ghd (invisible, re-storable), never
    // a meta that points at a deleted witness.
    std::error_code ec;
    std::filesystem::remove(EntryPath(entry.key, ".json"), ec);
    std::filesystem::remove(EntryPath(entry.key, ".ghd"), ec);
    total -= entry.bytes;
    metrics::GetCounter("serve.store.evictions").Increment();
    metrics::GetCounter("serve.store.evicted_bytes").Add(entry.bytes);
  }
}

std::string PersistentCacheStore::EntryPath(const std::string& key,
                                            const char* ext) const {
  // Two-hex-digit fanout keeps any one directory small (256-way split).
  return dir_ + "/" + key.substr(0, 2) + "/" + key + ext;
}

std::optional<StoredWitness> PersistentCacheStore::Load(
    const std::string& key, const std::string& canonical_text,
    std::string* error) const {
  if (!enabled()) return std::nullopt;
  const std::string meta_path = EntryPath(key, ".json");
  std::string meta_text;
  if (!ReadFileToString(meta_path, &meta_text)) return std::nullopt;

  std::string why;
  std::optional<StoredWitness> witness =
      ParseStoredMeta(meta_text, canonical_text, &why);
  if (!witness.has_value()) {
    SetError(error, why + " for key " + key);
    return std::nullopt;
  }
  if (!ReadFileToString(EntryPath(key, ".ghd"), &witness->witness_text)) {
    SetError(error, "meta present but witness missing for key " + key);
    return std::nullopt;
  }
  std::string ghd_error;
  if (!ReadGhdFromString(witness->witness_text, &ghd_error).has_value()) {
    SetError(error, "corrupt witness for key " + key + ": " + ghd_error);
    return std::nullopt;
  }
  // Bump the LRU recency stamp. The stamp lives in the filesystem, so
  // the eviction order survives server restarts. Best-effort: a
  // read-only cache dir still answers hits, it just stops aging.
  std::error_code ec;
  std::filesystem::last_write_time(
      meta_path, std::filesystem::file_time_type::clock::now(), ec);
  return witness;
}

bool PersistentCacheStore::Store(const std::string& key,
                                 const std::string& canonical_text,
                                 const StoredWitness& witness,
                                 std::string* error) const {
  if (!enabled()) return true;
  std::error_code ec;
  std::filesystem::create_directories(dir_ + "/" + key.substr(0, 2), ec);
  if (ec) {
    SetError(error, "create_directories: " + ec.message());
    return false;
  }
  // Witness first, meta last: Load treats the meta file as the commit
  // marker, so a crash between the two writes leaves no visible entry.
  if (!WriteFileAtomic(EntryPath(key, ".ghd"), witness.witness_text, error)) {
    return false;
  }
  Json meta = Json::Object();
  meta.Set("key", key);
  meta.Set("width", witness.meta.width);
  meta.Set("lower_bound", witness.meta.lower_bound);
  meta.Set("exact", witness.meta.exact);
  meta.Set("vertices", witness.vertices);
  meta.Set("edges", witness.edges);
  meta.Set("solver", witness.solver);
  meta.Set("instance", canonical_text);
  if (!WriteFileAtomic(EntryPath(key, ".json"), meta.Dump() + "\n", error)) {
    return false;
  }
  if (max_bytes_ > 0) EvictToCap(key);
  return true;
}

}  // namespace hypertree::serve
