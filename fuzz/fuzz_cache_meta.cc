// Fuzz harness for the decomposition service's stored meta parser. The
// input is one stored meta file (K.json: everything before the first
// newline) followed by the canonical instance text of the request
// (everything after it). ParseStoredMeta must accept or reject with an
// error, never abort; every meta it accepts must pass through
// PackMeta/UnpackMeta unchanged, since the service packs a disk hit's
// meta into the memory level.

#include <cstdint>
#include <optional>
#include <string>

#include "serve/cache_store.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  const size_t newline = input.find('\n');
  const std::string meta_text = input.substr(0, newline);
  const std::string canonical_text =
      newline == std::string::npos ? "" : input.substr(newline + 1);
  std::string error;
  std::optional<hypertree::serve::StoredWitness> stored =
      hypertree::serve::ParseStoredMeta(meta_text, canonical_text, &error);
  if (!stored.has_value()) {
    HT_CHECK(!error.empty()) << "rejected meta without a reason";
    return 0;
  }
  HT_CHECK(stored->witness_text.empty());
  const hypertree::serve::WitnessMeta& meta = stored->meta;
  const hypertree::serve::WitnessMeta back =
      hypertree::serve::UnpackMeta(hypertree::serve::PackMeta(meta));
  HT_CHECK_EQ(back.width, meta.width);
  HT_CHECK_EQ(back.lower_bound, meta.lower_bound);
  HT_CHECK_EQ(back.exact, meta.exact);
  return 0;
}
