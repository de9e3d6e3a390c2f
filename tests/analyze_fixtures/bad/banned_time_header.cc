// Fixture: the wall-clock header itself is banned.
#include <ctime>  // expect-analyze: banned-header

int Unused() { return 0; }
