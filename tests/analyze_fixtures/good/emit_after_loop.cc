// Fixture: a single-statement loop over an unordered container that
// only accumulates, followed by an emission AFTER the loop, is
// order-independent. A line-window scan attributes the later emission to
// the loop; the unordered-output rule reads the real loop body and must
// not.
#include <ostream>
#include <unordered_map>

long EmitTotal(const std::unordered_map<int, long>& input, std::ostream& os) {
  std::unordered_map<int, long> counts = input;
  long total = 0;
  for (const auto& kv : counts) total += kv.second;
  os << "total=" << total << "\n";
  return total;
}
