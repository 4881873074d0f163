/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Every bench binary prints the rows/series of one exhibit from the
 * paper's evaluation. Absolute numbers differ from the paper (our
 * substrate is a C++ cycle model, not the authors' RTL/FPGA/ASIC); the
 * *shape* — orderings, ratios, crossovers — is the reproduction target
 * (see EXPERIMENTS.md).
 */

#ifndef MINJIE_BENCH_BENCH_UTIL_H
#define MINJIE_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace bench {

using namespace minjie;
namespace wl = minjie::workload;

/** FAST=1 in the environment trims suites for smoke runs. */
inline bool
fastMode()
{
    const char *f = std::getenv("FAST");
    return f && f[0] == '1';
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0;
    double logSum = 0;
    for (double v : vals)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(vals.size()));
}

/**
 * Run @p prog on a fresh Soc with @p cfg until it finishes or
 * @p maxInstrs commit; returns the measured IPC.
 */
inline double
measureIpc(const xs::CoreConfig &cfg, const wl::Program &prog,
           InstCount maxInstrs, Cycle maxCycles = 400'000'000)
{
    xs::Soc soc(cfg);
    soc.loadProgram(prog);
    // First half warms caches/predictors; IPC measured on the rest.
    soc.runUntilInstrs(maxInstrs / 2, maxCycles);
    Cycle warmCycles = soc.core(0).perf().cycles;
    InstCount warmInstrs = soc.core(0).perf().instrs;
    soc.runUntilInstrs(maxInstrs, maxCycles);
    InstCount di = soc.core(0).perf().instrs - warmInstrs;
    Cycle dc = soc.core(0).perf().cycles - warmCycles;
    return dc ? static_cast<double>(di) / static_cast<double>(dc) : 0.0;
}

/**
 * Cores' worth of compute this host delivers: one copy of a fixed
 * integer kernel alone against one copy per hardware thread at once,
 * times the thread count (4.0 on four idle cores, less when they are
 * shared). Best of three rounds.
 */
inline double
calibratedCores()
{
    auto kernel = [](uint64_t seed) {
        uint64_t x = seed | 1;
        for (int i = 0; i < 10'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        return x;
    };
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    std::vector<uint64_t> sink(n);
    double best = 0;
    for (int round = 0; round < 3; ++round) {
        Stopwatch alone;
        sink[0] += kernel(round + 1);
        const double aloneSec = alone.elapsedSec();
        Stopwatch all;
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < n; ++i)
            pool.emplace_back([&sink, &kernel, i] { sink[i] += kernel(i + 2); });
        for (auto &t : pool)
            t.join();
        best = std::max(best, n * aloneSec / all.elapsedSec());
    }
    // Printed so the kernel's result is observable and not elided.
    uint64_t keep = 0;
    for (uint64_t s : sink)
        keep ^= s;
    std::fflush(stdout);
    std::fprintf(stderr, "calibration checksum %llx\n",
                 static_cast<unsigned long long>(keep));
    return best;
}

inline void
hr(char c = '-', int n = 72)
{
    for (int i = 0; i < n; ++i)
        std::putchar(c);
    std::putchar('\n');
}

} // namespace bench

#endif // MINJIE_BENCH_BENCH_UTIL_H
