// Fixture: the escape hatch is surgical — one allow names exactly one
// rule and reaches exactly one line (its own or the one directly
// below).
//
// expect-analyze: atomic-order
// expect-analyze: atomic-order
// expect-analyze: atomic-order

#include <atomic>

std::atomic<int> flag{0};

void TwoRulesOneLine(int n) {
  int i = 0;
  // The next line violates both dcheck-purity (++i) and atomic-order
  // (load without an order). Only dcheck-purity is suppressed, so
  // atomic-order must still fire.
  // ht-analyze: allow(dcheck-purity)
  HT_DCHECK_LT(++i, flag.load());
  (void)n;
}

void OneLineOnly() {
  // The allow reaches the line below it, not the one after that: `a`
  // is suppressed, `b` is reported.
  // ht-analyze: allow(atomic-order)
  int a = flag.load();
  int b = flag.load();
  (void)a;
  (void)b;
}

void WrongToolPrefix() {
  // Only the `ht-analyze:` prefix suppresses; a comment with any other
  // prefix must not silence this rule.
  // analyze: allow(atomic-order)
  int c = flag.load();
  (void)c;
}
