// Fixture: a header without a HYPERTREE_*_H_ include guard.
// expect-analyze: include-guard
inline int Twice(int x) { return 2 * x; }
