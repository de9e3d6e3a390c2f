#include "serve/cache_store.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "io/ghd_format.h"
#include "ordering/heuristics.h"
#include "search/decomp_cache.h"
#include "serve/instance_hash.h"
#include "util/json.h"
#include "util/rng.h"

namespace hypertree {
namespace {

using serve::CanonicalWitnessText;
using serve::GhdFromSubtree;
using serve::NormalizeInstance;
using serve::PackMeta;
using serve::ParseStoredMeta;
using serve::PersistentCacheStore;
using serve::StoredWitness;
using serve::SubtreeFromGhd;
using serve::UnpackMeta;
using serve::WitnessMeta;

GeneralizedHypertreeDecomposition MakeGhd(const Hypergraph& h,
                                          uint64_t seed) {
  GhwEvaluator eval(h);
  Rng rng(seed);
  return eval.BuildGhd(MinFillOrdering(eval.primal(), &rng),
                       CoverMode::kExact);
}

TEST(ServeCacheTest, MetaPackRoundTrip) {
  for (int width : {0, 1, 7, 1000}) {
    for (int lower : {0, 1, width}) {
      for (bool exact : {false, true}) {
        WitnessMeta meta{width, lower, exact};
        WitnessMeta back = UnpackMeta(PackMeta(meta));
        EXPECT_EQ(back.width, width);
        EXPECT_EQ(back.lower_bound, lower);
        EXPECT_EQ(back.exact, exact);
      }
    }
  }
}

TEST(ServeCacheTest, ParseStoredMetaRejectsUnpackableFields) {
  const std::string canonical = "% n=2 m=1\ne1(v1,v2).\n";
  Json meta = Json::Object();
  meta.Set("width", 2);
  meta.Set("lower_bound", 1);
  meta.Set("exact", true);
  meta.Set("vertices", 2);
  meta.Set("edges", 1);
  meta.Set("solver", "portfolio");
  meta.Set("instance", canonical);
  std::string error;
  std::optional<StoredWitness> parsed =
      ParseStoredMeta(meta.Dump(), canonical, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->witness_text.empty());
  EXPECT_EQ(parsed->meta.width, 2);
  EXPECT_EQ(parsed->meta.lower_bound, 1);
  EXPECT_TRUE(parsed->meta.exact);
  EXPECT_EQ(parsed->vertices, 2);
  EXPECT_EQ(parsed->edges, 1);
  EXPECT_EQ(parsed->solver, "portfolio");

  // Fields PackMeta could not pack, and counts that are not
  // non-negative ints, make the entry corrupt instead of aborting later.
  const std::vector<std::pair<std::string, Json>> corrupt_fields = {
      {"width", Json(1 << 15)},     {"width", Json(-1)},
      {"width", Json(2.5)},         {"lower_bound", Json(40000)},
      {"lower_bound", Json(-1)},    {"vertices", Json(-3)},
      {"edges", Json(1L << 40)},    {"edges", Json("1")}};
  for (const auto& [field, value] : corrupt_fields) {
    Json corrupt = meta;
    corrupt.Set(field, value);
    error.clear();
    EXPECT_FALSE(
        ParseStoredMeta(corrupt.Dump(), canonical, &error).has_value())
        << field << "=" << value.Dump();
    EXPECT_NE(error.find("corrupt meta: " + field), std::string::npos)
        << error;
  }
  EXPECT_FALSE(
      ParseStoredMeta(meta.Dump(), canonical + "x", &error).has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
  EXPECT_FALSE(ParseStoredMeta("[2,1]", canonical, &error).has_value());
  EXPECT_NE(error.find("not a JSON object"), std::string::npos) << error;
}

TEST(ServeCacheTest, SubtreeRoundTripIsByteIdentical) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Hypergraph h = RandomHypergraph(16, 18, 2, 4, seed);
    auto norm = NormalizeInstance(h);
    GeneralizedHypertreeDecomposition ghd = MakeGhd(norm.hypergraph, seed);
    CachedSubtree subtree = SubtreeFromGhd(ghd);
    std::string text = CanonicalWitnessText(subtree, norm.hypergraph);

    // Reconstructed GHD is valid and equally wide.
    GeneralizedHypertreeDecomposition back = GhdFromSubtree(subtree);
    std::string why;
    EXPECT_TRUE(back.IsValidFor(norm.hypergraph, &why)) << why;
    EXPECT_EQ(back.Width(), ghd.Width());

    // text -> ReadGhd -> SubtreeFromGhd -> text is a fixed point: this
    // is the property that makes memory hits, disk hits and cold solves
    // answer byte-identical witnesses.
    auto parsed = ReadGhdFromString(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(CanonicalWitnessText(SubtreeFromGhd(*parsed), norm.hypergraph),
              text);
  }
}

TEST(ServeCacheTest, DecompCacheInstanceEntries) {
  DecompCache cache;
  Hypergraph h = RandomHypergraph(12, 14, 2, 4, 3);
  auto norm = NormalizeInstance(h);
  auto subtree = std::make_shared<CachedSubtree>(
      SubtreeFromGhd(MakeGhd(norm.hypergraph, 3)));

  EXPECT_EQ(cache.LookupInstance(norm.key_bits),
            DecompCache::Outcome::kUnknown);
  EXPECT_EQ(cache.NumEntries(), size_t{0});

  WitnessMeta meta{3, 3, true};
  cache.InsertInstance(norm.key_bits, PackMeta(meta), subtree);
  int packed = 0;
  std::shared_ptr<const CachedSubtree> got;
  EXPECT_EQ(cache.LookupInstance(norm.key_bits, &packed, &got),
            DecompCache::Outcome::kPositive);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), subtree.get());
  EXPECT_EQ(UnpackMeta(packed).width, 3);

  // First write wins: a second insert under the same key is ignored.
  auto other = std::make_shared<CachedSubtree>(*subtree);
  cache.InsertInstance(norm.key_bits, PackMeta({9, 9, true}), other);
  cache.LookupInstance(norm.key_bits, &packed, &got);
  EXPECT_EQ(got.get(), subtree.get());
  EXPECT_EQ(UnpackMeta(packed).width, 3);

  EXPECT_EQ(cache.NumEntries(), size_t{1});
}

class PersistentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "serve_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    h_ = RandomHypergraph(14, 16, 2, 4, 5);
    norm_ = NormalizeInstance(h_);
    witness_.witness_text = CanonicalWitnessText(
        SubtreeFromGhd(MakeGhd(norm_.hypergraph, 5)), norm_.hypergraph);
    witness_.meta = {3, 3, true};
    witness_.vertices = norm_.hypergraph.NumVertices();
    witness_.edges = norm_.hypergraph.NumEdges();
    witness_.solver = "portfolio";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  Hypergraph h_;
  serve::NormalizedInstance norm_;
  StoredWitness witness_;
};

TEST_F(PersistentStoreTest, StoreThenLoadRoundTrips) {
  PersistentCacheStore store(dir_);
  ASSERT_TRUE(store.enabled());
  std::string error;
  ASSERT_TRUE(store.Store(norm_.key, norm_.canonical_text, witness_, &error))
      << error;
  auto loaded = store.Load(norm_.key, norm_.canonical_text, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->witness_text, witness_.witness_text);
  EXPECT_EQ(loaded->meta.width, 3);
  EXPECT_EQ(loaded->meta.lower_bound, 3);
  EXPECT_TRUE(loaded->meta.exact);
  EXPECT_EQ(loaded->vertices, witness_.vertices);
  EXPECT_EQ(loaded->edges, witness_.edges);
  EXPECT_EQ(loaded->solver, "portfolio");
}

TEST_F(PersistentStoreTest, MissAndDisabledStore) {
  PersistentCacheStore store(dir_);
  EXPECT_FALSE(store.Load(norm_.key, norm_.canonical_text).has_value());

  PersistentCacheStore disabled("");
  EXPECT_FALSE(disabled.enabled());
  EXPECT_TRUE(disabled.Store(norm_.key, norm_.canonical_text, witness_));
  EXPECT_FALSE(disabled.Load(norm_.key, norm_.canonical_text).has_value());
}

TEST_F(PersistentStoreTest, InstanceTextMismatchIsAMiss) {
  PersistentCacheStore store(dir_);
  ASSERT_TRUE(store.Store(norm_.key, norm_.canonical_text, witness_));
  // Same key, different canonical text: a (simulated) hash collision
  // must not answer with the other instance's witness.
  std::string error;
  EXPECT_FALSE(
      store.Load(norm_.key, norm_.canonical_text + "x", &error).has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST_F(PersistentStoreTest, CapEvictsLeastRecentlyUsedAcrossRestarts) {
  // Three instances; C is much smaller than A and B so that {A, C} fits
  // a cap sized to hold {A, B}.
  auto make_entry = [](const Hypergraph& h, uint64_t seed) {
    serve::NormalizedInstance norm = NormalizeInstance(h);
    StoredWitness w;
    w.witness_text = CanonicalWitnessText(
        SubtreeFromGhd(MakeGhd(norm.hypergraph, seed)), norm.hypergraph);
    w.meta = {2, 1, true};
    w.vertices = norm.hypergraph.NumVertices();
    w.edges = norm.hypergraph.NumEdges();
    w.solver = "portfolio";
    return std::make_pair(norm, w);
  };
  auto [a, wa] = make_entry(RandomHypergraph(14, 16, 2, 4, 7), 7);
  auto [b, wb] = make_entry(RandomHypergraph(14, 16, 2, 4, 8), 8);
  auto [c, wc] = make_entry(RandomHypergraph(6, 6, 2, 3, 9), 9);

  // First server life: uncapped writes of A then B.
  {
    PersistentCacheStore store(dir_);
    ASSERT_TRUE(store.Store(a.key, a.canonical_text, wa));
    ASSERT_TRUE(store.Store(b.key, b.canonical_text, wb));
  }
  // Make the on-disk LRU order unambiguous even on coarse-mtime
  // filesystems: A's recency stamp is hours older than B's.
  const auto now = std::filesystem::file_time_type::clock::now();
  auto meta_path = [&](const serve::NormalizedInstance& n) {
    return dir_ + "/" + n.key.substr(0, 2) + "/" + n.key + ".json";
  };
  std::filesystem::last_write_time(meta_path(a), now - std::chrono::hours(4));
  std::filesystem::last_write_time(meta_path(b), now - std::chrono::hours(2));

  // "Restart" with a cap that holds {A, B} exactly: the capped store
  // must account for entries written before it existed.
  const long long cap = PersistentCacheStore(dir_).DiskUsageBytes();
  PersistentCacheStore store(dir_, cap);
  EXPECT_EQ(store.max_bytes(), cap);

  // A hit on A bumps its recency past B's pre-restart stamp.
  ASSERT_TRUE(store.Load(a.key, a.canonical_text).has_value());

  // Storing C exceeds the cap; B — now the least recently used — must
  // be evicted, while the touched A and the fresh C survive.
  ASSERT_TRUE(store.Store(c.key, c.canonical_text, wc));
  EXPECT_LE(store.DiskUsageBytes(), cap);
  EXPECT_FALSE(store.Load(b.key, b.canonical_text).has_value());
  EXPECT_TRUE(store.Load(a.key, a.canonical_text).has_value());
  EXPECT_TRUE(store.Load(c.key, c.canonical_text).has_value());

  // A cap too small for anything still keeps the just-stored entry: the
  // eviction pass never deletes its own write.
  PersistentCacheStore tiny(dir_, 1);
  ASSERT_TRUE(tiny.Store(b.key, b.canonical_text, wb));
  EXPECT_TRUE(tiny.Load(b.key, b.canonical_text).has_value());
  EXPECT_FALSE(tiny.Load(a.key, a.canonical_text).has_value());
  EXPECT_FALSE(tiny.Load(c.key, c.canonical_text).has_value());
}

TEST_F(PersistentStoreTest, CorruptEntriesAreMisses) {
  PersistentCacheStore store(dir_);
  ASSERT_TRUE(store.Store(norm_.key, norm_.canonical_text, witness_));
  const std::string base = dir_ + "/" + norm_.key.substr(0, 2) + "/" +
                           norm_.key;
  {
    // Truncated witness file: meta verifies but the GHD no longer parses.
    std::ofstream out(base + ".ghd", std::ios::trunc);
    out << witness_.witness_text.substr(0, witness_.witness_text.size() / 2);
  }
  std::string error;
  EXPECT_FALSE(store.Load(norm_.key, norm_.canonical_text, &error).has_value());
  {
    // Unparsable meta JSON.
    std::ofstream out(base + ".json", std::ios::trunc);
    out << "{not json";
  }
  EXPECT_FALSE(store.Load(norm_.key, norm_.canonical_text, &error).has_value());
  EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
}

}  // namespace
}  // namespace hypertree
