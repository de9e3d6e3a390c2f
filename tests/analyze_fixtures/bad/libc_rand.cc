// Fixture: libc randomness must be flagged.
int Roll() {
  return rand() % 6;  // expect-analyze: no-libc-rand
}
