// Seeded MJ-FRK2-001 violations: constructs that are unsafe to
// duplicate across a fork() snapshot. Fixture data only — never
// compiled; see fixtures/determinism.cpp for the scheme.

void
fixture_fork()
{
    std::thread pool(worker);                   // MJ-FRK2-001
    std::lock_guard<std::mutex> hold(stateMu);  // MJ-FRK2-001
    printf("snapshot %d\n", 1);                 // MJ-FRK2-001
    fprintf(stderr, "replay\n");                // stderr is unbuffered: clean
    fflush(stdout);                             // MJ-FRK2-001
    fflush(stderr);                             // clean
    exit(0);                                    // MJ-FRK2-001
}
