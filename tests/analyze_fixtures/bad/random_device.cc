// Fixture: hardware entropy must be flagged (both the header and the use).
#include <random>  // expect-analyze: banned-header

int Seed() {
  std::random_device rd;  // expect-analyze: no-random-device
  return static_cast<int>(rd());
}
