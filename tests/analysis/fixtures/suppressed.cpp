// Exercises the suppression mechanism itself. Fixture data only —
// never compiled; see fixtures/determinism.cpp for the scheme.

void
fixture_suppressed()
{
    // lint:allow MJ-DET2-001 fixture: justified directive on prior line
    int a = rand();                 // suppressed
    int b = rand(); // lint:allow MJ-DET2-001 same-line directive
    int c = rand(); // lint:allow MJ-DET2-001
    (void)a; (void)b; (void)c;
}
