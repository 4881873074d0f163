// Seeded MJ-DET2-001 violations. This fixture is DATA, not code: it is
// never compiled and never scanned by lint_repo_clean (which excludes
// tests/analysis/fixtures). rules_test.cpp feeds it to the engine under
// the scoped path src/campaign/fixture.cpp and asserts the flagged
// lines below exactly.
#include <cstdlib>

void
fixture_determinism()
{
    int a = rand();                                 // MJ-DET2-001
    std::mt19937 gen(42);                           // MJ-DET2-001
    long t = time(nullptr);                         // MJ-DET2-001
    auto now = std::chrono::steady_clock::now();    // MJ-DET2-001
    std::unordered_map<int, int> hist;              // declaration: clean
    std::map<const Block *, int> order;             // declaration: clean
    std::map<int, int> sorted;                      // ordered by value
    int sum = a + static_cast<int>(t);
    for (const auto &kv : hist)                     // MJ-DET2-001
        sum += kv.second;
    for (auto it = order.begin(); it != order.end(); ++it) // MJ-DET2-001
        sum += it->second;
    for (const auto &kv : sorted)                   // clean
        sum += kv.second;
    (void)gen; (void)now; (void)sum;
}

static std::random_device entropy;                  // MJ-DET2-001
