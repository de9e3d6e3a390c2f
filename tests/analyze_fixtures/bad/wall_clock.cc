// Fixture: wall-clock reads must be flagged.
#include <cstdint>

uint64_t Stamp() {
  return static_cast<uint64_t>(time(nullptr));  // expect-analyze: no-wall-clock
}
