// Fixture: sorting the keys before emission is the sanctioned pattern —
// the analyzer must stay quiet here.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

void DumpCountersSorted(const std::unordered_map<std::string, long>& input) {
  std::unordered_map<std::string, long> counters = input;
  std::vector<std::pair<std::string, long>> sorted_counters(counters.begin(),
                                                            counters.end());
  std::sort(sorted_counters.begin(), sorted_counters.end());
  for (const auto& [name, value] : sorted_counters) {
    std::printf("%s=%ld\n", name.c_str(), value);
  }
}

// Accumulating into a non-emitting sink (a counter) is also fine: the sum
// is order-independent.
long TotalOf(const std::unordered_map<std::string, long>& counters) {
  long total = 0;
  for (const auto& [name, value] : counters) {
    (void)name;
    total += value;
  }
  return total;
}
