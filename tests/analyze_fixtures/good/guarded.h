// Fixture: a conventionally guarded header, with mentions of rand() and
// time() in comments and strings that must NOT be flagged.

#ifndef HYPERTREE_TESTS_ANALYZE_FIXTURES_GOOD_GUARDED_H_
#define HYPERTREE_TESTS_ANALYZE_FIXTURES_GOOD_GUARDED_H_

// The words rand( and time( in this comment are not calls.
inline const char* Slogan() { return "never call rand( or time( here"; }

#endif  // HYPERTREE_TESTS_ANALYZE_FIXTURES_GOOD_GUARDED_H_
