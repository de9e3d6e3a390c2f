// Fixture: the inline escape hatch must suppress a deliberate use, both
// on the offending line and on the line directly above.
int DeliberateRand() {
  return rand();  // ht-analyze: allow(no-libc-rand)
}

int DeliberateRandAbove() {
  // ht-analyze: allow(no-libc-rand)
  return rand();
}
