/**
 * @file
 * Wall-clock scaling of the fork-fanout sampled-simulation engine:
 * the same checkpoint pack evaluated serially (--workers 1) and with
 * 8 forked workers, on the fig12 workload set.
 *
 * Two properties are on trial:
 *   1. Throughput — with >= 8 host cores, 8 workers must cut the
 *      wall-clock of a pack evaluation by >= 3x (the smoke gate).
 *      On smaller hosts the 3x target is physically unreachable, so
 *      the gate reports the measured speedup and enforces only the
 *      invariance property (the ctest stays meaningful everywhere).
 *   2. Determinism — weighted counters, IPC, and the top-down stack
 *      must be byte-identical between serial and parallel runs; this
 *      is checked unconditionally and fails the gate on any host.
 *
 * Flags:
 *   --smoke       scaling-regression gate (ctest label "bench-smoke")
 */

#include "bench_util.h"

#include <cstring>
#include <thread>

#include "checkpoint/generator.h"
#include "sample/engine.h"

using namespace bench;
using namespace minjie;

namespace {

constexpr unsigned PAR_WORKERS = 8;

struct Row
{
    std::string workload;
    size_t slices = 0;
    double serialSec = 0;   ///< best of reps, workers=1
    double parallelSec = 0; ///< best of reps, workers=8
    bool invariant = false; ///< serial and parallel reduced identically

    double
    speedup() const
    {
        return parallelSec > 0 ? serialSec / parallelSec : 0;
    }
};

Row
measureWorkload(const wl::ProxySpec &spec, InstCount budget, int reps)
{
    Row row;
    row.workload = spec.name;

    auto prog = wl::buildProxy(spec, 10'000'000);
    auto gen = checkpoint::generateCheckpoints(prog, budget / 10,
                                               PAR_WORKERS, budget);
    sample::PackReader pack;
    if (!pack.openMemory(sample::packFromGen(gen)))
        return row;
    row.slices = pack.count();

    sample::SampleConfig cfg;
    cfg.measureInsts = 30'000;

    sample::SampleReport serial, parallel;
    for (int r = 0; r < reps; ++r) {
        // Serial and parallel back to back inside each rep so host
        // noise cancels in the ratio (core_fastpath's pairing idiom).
        cfg.workers = 1;
        auto s = sample::runSampled(pack, cfg);
        cfg.workers = PAR_WORKERS;
        auto p = sample::runSampled(pack, cfg);
        if (r == 0 || s.wallSec < serial.wallSec)
            serial = s;
        if (r == 0 || p.wallSec < parallel.wallSec)
            parallel = std::move(p);
    }
    row.serialSec = serial.wallSec;
    row.parallelSec = parallel.wallSec;
    row.invariant =
        serial.allOk() && parallel.allOk() &&
        serial.weighted == parallel.weighted &&
        serial.weightedCycles == parallel.weightedCycles &&
        serial.weightedInstrs == parallel.weightedInstrs &&
        serial.stack.sumsExactly();
    return row;
}

std::vector<Row>
measureSuite(const std::vector<wl::ProxySpec> &suite, InstCount budget,
             int reps)
{
    std::vector<Row> rows;
    for (const auto &spec : suite) {
        std::printf("  %-14s ...", spec.name);
        std::fflush(stdout);
        Row r = measureWorkload(spec, budget, reps);
        std::printf(" %zu slices  serial %6.3fs  8-workers %6.3fs  "
                    "%5.2fx  %s\n",
                    r.slices, r.serialSec, r.parallelSec, r.speedup(),
                    r.invariant ? "invariant" : "MISMATCH");
        rows.push_back(std::move(r));
    }
    return rows;
}

int
runSmoke()
{
    constexpr double MIN_SPEEDUP = 3.0;
    unsigned hostCores = std::thread::hardware_concurrency();
    // The gate needs 8 runnable workers to have 8 cores' worth of
    // wall-clock to reclaim; below that the target is unreachable by
    // construction, not by regression.
    bool enforce = hostCores >= PAR_WORKERS;

    std::printf("=== sampled-simulation scaling smoke (8 workers vs "
                "serial) ===\n");
    std::printf("host cores: %u -> 3x gate %s\n\n", hostCores,
                enforce ? "ENFORCED" : "reported only (invariance "
                                       "still enforced)");

    // Gate set: fig12 workloads with distinct phase structure, sized
    // so each pack yields ~8 roughly equal slices.
    auto intSuite = wl::specIntSuite();
    std::vector<wl::ProxySpec> gateSet = {intSuite[0], intSuite[5]};
    auto rows = measureSuite(gateSet, 400'000, /*reps=*/3);

    std::vector<double> sp;
    bool allInvariant = true;
    for (const Row &r : rows) {
        if (r.speedup() > 0)
            sp.push_back(r.speedup());
        allInvariant = allInvariant && r.invariant;
    }
    double geo = geomean(sp);
    std::printf("\ngeomean speedup: %.2fx\n", geo);

    if (!allInvariant) {
        std::printf("FAIL: serial and parallel reductions diverged\n");
        return 1;
    }
    if (enforce && geo < MIN_SPEEDUP) {
        std::printf("FAIL: speedup %.2fx < %.1fx gate at %u workers\n",
                    geo, MIN_SPEEDUP, PAR_WORKERS);
        return 1;
    }
    std::printf("PASS%s\n",
                enforce ? "" : " (speedup informational on this host)");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else {
            std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
            return 2;
        }
    }
    if (smoke)
        return runSmoke();

    bool fast = fastMode();
    auto suite = wl::specIntSuite();
    auto fpSuite = wl::specFpSuite();
    suite.insert(suite.end(), fpSuite.begin(), fpSuite.end());
    if (fast)
        suite.resize(3);

    std::printf("=== sampled evaluation: serial vs %u forked workers "
                "(fig12 set) ===\n\n",
                PAR_WORKERS);
    auto rows = measureSuite(suite, fast ? 200'000 : 400'000,
                             /*reps=*/1);
    std::vector<double> sp;
    for (const Row &r : rows)
        if (r.speedup() > 0)
            sp.push_back(r.speedup());
    std::printf("\ngeomean speedup: %.2fx (host cores: %u)\n",
                geomean(sp), std::thread::hardware_concurrency());
    return 0;
}
