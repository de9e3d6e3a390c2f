// Fixture: printing straight out of an unordered container must be
// flagged — the emission order is whatever the hash table happens to be.
#include <cstdio>
#include <string>
#include <unordered_map>

void DumpCounters(const std::unordered_map<std::string, long>& input) {
  std::unordered_map<std::string, long> counters = input;
  for (const auto& [name, value] : counters) {  // expect-analyze: unordered-output
    std::printf("%s=%ld\n", name.c_str(), value);
  }
}
