/**
 * @file
 * Host throughput of the core model's scheduling fast paths: bitset
 * scoreboard wakeup and event-driven idle-cycle skipping, measured one
 * axis at a time against the full reference (scan + tick-by-tick)
 * configuration.
 * The sched_diff rig proves every configuration is cycle-exact, so
 * the only thing that may differ here is host speed.
 *
 * Workload: the Figure 14 protocol — sjeng-proxy checkpoints, each a
 * distinct generator seed of the same program characteristics.
 *
 * Flags:
 *   --smoke       perf-regression gate (ctest label "bench-smoke"):
 *                 fast must stay >= 2x the full reference config at a
 *                 fixed budget, best paired ratio of 5 interleaved
 *                 reps; exit 1 otherwise
 */

#include "bench_util.h"

#include <cstring>

using namespace bench;
using namespace minjie;

namespace {

struct Config
{
    const char *name;
    xs::ModelOpts opts;
};

// The ablation matrix: each row disables one fast path; the last row
// is the all-reference oracle the smoke gate compares against.
const Config kConfigs[] = {
    {"fast", {true, true}},
    {"no-bitset", {false, true}},
    {"no-skip", {true, false}},
    {"reference", {false, false}},
};
constexpr int N_CONFIGS = 4;
constexpr int REF = N_CONFIGS - 1; ///< the all-reference oracle row

/** Simulated MIPS (committed instructions per host second). */
double
runModel(const wl::Program &prog, const xs::ModelOpts &model,
         InstCount budget)
{
    xs::CoreConfig cfg = xs::CoreConfig::nh();
    cfg.model = model;
    xs::Soc soc(cfg);
    soc.loadProgram(prog);
    Stopwatch sw;
    soc.runUntilInstrs(budget, 400'000'000);
    double sec = sw.elapsedSec();
    InstCount instrs = soc.core(0).perf().instrs;
    return sec > 0 ? static_cast<double>(instrs) / sec / 1e6 : 0;
}

struct Row
{
    std::string workload;
    double mips[N_CONFIGS];
    /// Best fast/reference ratio over reps, each computed from a
    /// back-to-back pair of runs: pairing cancels host frequency
    /// drift that best-of-per-config ratios are exposed to (one
    /// lucky reference rep deflates the quotient), while a real
    /// fast-path regression still caps every pair.
    double pairRatio = 0;
};

std::vector<Row>
measure(const std::vector<unsigned> &checkpoints, InstCount budget,
        int reps)
{
    const auto &sjeng = wl::specIntSuite()[5];
    std::vector<Row> rows;
    for (unsigned cp : checkpoints) {
        auto prog = wl::buildProxy(sjeng, 10'000'000, /*seed=*/cp);
        Row row;
        row.workload =
            std::string(sjeng.name) + "-cp" + std::to_string(cp);
        // Warm-up pass absorbs first-touch page allocation noise.
        (void)runModel(prog, kConfigs[0].opts, budget / 4);
        // Interleave reps across configs (fig8-smoke style) so host
        // frequency drift and co-tenant noise hit every configuration
        // equally instead of biasing whichever ran first; fast and
        // reference run back-to-back inside each rep to form the
        // drift-cancelling pairs described at Row::pairRatio.
        static const int kOrder[N_CONFIGS] = {0, REF, 1, 2};
        for (int c = 0; c < N_CONFIGS; ++c)
            row.mips[c] = 0;
        for (int r = 0; r < reps; ++r) {
            double cur[N_CONFIGS];
            for (int c : kOrder) {
                cur[c] = runModel(prog, kConfigs[c].opts, budget);
                row.mips[c] = std::max(row.mips[c], cur[c]);
            }
            if (cur[REF] > 0)
                row.pairRatio =
                    std::max(row.pairRatio, cur[0] / cur[REF]);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

void
printTable(const std::vector<Row> &rows)
{
    std::printf("%-14s", "workload");
    for (const Config &c : kConfigs)
        std::printf(" %10s", c.name);
    std::printf(" %9s\n", "fast/ref");
    hr();
    for (const Row &r : rows) {
        std::printf("%-14s", r.workload.c_str());
        for (int c = 0; c < N_CONFIGS; ++c)
            std::printf(" %10.3f", r.mips[c]);
        std::printf(" %8.2fx\n", r.pairRatio);
    }
    hr();
}

std::vector<double>
speedups(const std::vector<Row> &rows)
{
    std::vector<double> s;
    for (const Row &r : rows)
        if (r.pairRatio > 0)
            s.push_back(r.pairRatio);
    return s;
}

/**
 * Perf-regression smoke gate: the combined fast paths must stay at
 * least 2x the full reference configuration. They are load-bearing
 * for the repo's "agile iteration speed" claim (the whole point of
 * the event-driven model), so a regression fails CI loudly instead of
 * silently shipping a slower simulator.
 */
int
runSmoke()
{
    constexpr InstCount BUDGET = 250'000;
    // Runs are ~100 ms each, short enough that scheduler and frequency
    // jitter swing single runs by double-digit percentages; best-of-5
    // per config converges on the quiet-host value for both sides of
    // the ratio.
    constexpr int REPS = 5;
    constexpr double MIN_RATIO = 2.0;

    // Gate checkpoints: the stall-heavy fig14 phases (cold caches,
    // mispredict trains, long dependence chains), where the guarded
    // machinery — event-driven skipping and the wakeup network — does
    // the work and a regression in it moves the number. The protocol's
    // peak-ILP phases keep every pipe busy every cycle; both
    // configurations then run the identical stage code, the ratio
    // compresses toward the per-tick cost ratio regardless of the
    // fast-path machinery's health, and a gate there would miss real
    // regressions (same reasoning fig8's smoke uses to exclude
    // host-cache-bound proxies). The full matrix across all phases
    // stays visible in the default mode.
    const std::vector<unsigned> gateCps = {1, 6, 8};

    std::printf("=== core fastpath smoke: fast vs reference model "
                "===\n");
    std::printf("(budget %llu instrs/run, best of %d; gate: fast >= "
                "%.1fx reference)\n\n",
                static_cast<unsigned long long>(BUDGET), REPS,
                MIN_RATIO);
    auto rows = measure(gateCps, BUDGET, REPS);
    printTable(rows);
    double g = geomean(speedups(rows));
    std::printf("%-14s %43s %8.2fx\n", "geomean", "", g);
    if (g < MIN_RATIO) {
        std::printf("\nFAIL: fast-path speedup %.2fx < %.1fx gate\n", g,
                    MIN_RATIO);
        return 1;
    }
    std::printf("\nPASS: fast-path speedup %.2fx >= %.1fx\n", g,
                MIN_RATIO);
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
    unsigned nCheckpoints = fast ? 3 : 8;
    InstCount budget = fast ? 150'000 : 600'000;
    std::vector<unsigned> cps;
    for (unsigned cp = 1; cp <= nCheckpoints; ++cp)
        cps.push_back(cp);

    std::printf("=== core model scheduling fast paths (host MIPS) "
                "===\n");
    std::printf("(sjeng checkpoints, budget %llu instrs/run; every "
                "config is cycle-exact —\n see sched_diff_test — so "
                "only host speed differs)\n\n",
                static_cast<unsigned long long>(budget));
    auto rows = measure(cps, budget, /*reps=*/1);
    printTable(rows);
    double g = geomean(speedups(rows));
    std::printf("%-14s %43s %8.2fx\n", "geomean", "", g);
    return 0;
}
