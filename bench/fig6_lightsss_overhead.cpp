/**
 * @file
 * Figure 6: simulation time with LightSSS disabled vs enabled at
 * different snapshot intervals.
 *
 * The paper simulates single-core (CoreMark) and dual-core (SMP Linux
 * boot) XIANGSHAN with snapshot intervals from 1s to 60s and shows the
 * simulation time is flat — fork/COW overhead is in the noise. We run
 * the cycle model over the CoreMark proxy (single-core) and a memory
 * stress (dual-core stand-in for the boot workload) with intervals
 * scaled to our cycle counts.
 */

#include "bench_util.h"

#include "lightsss/lightsss.h"

using namespace bench;
using namespace minjie::lightsss;

namespace {

struct Run
{
    double sec = 0;
    LightSssStats sss;
};

Run
runWithInterval(unsigned nCores, const wl::Program &prog,
                Cycle interval /* 0 = disabled */, Cycle maxCycles)
{
    xs::Soc soc(xs::CoreConfig::nh(), nCores);
    soc.loadProgram(prog);

    LightSSS sss({interval ? interval : 1, 2, interval != 0});
    Stopwatch sw;
    soc.runWhile(maxCycles, [&](Cycle cycle) {
        if (interval &&
            sss.tick(cycle) == LightSSS::Role::ReplayChild)
            LightSSS::finishReplay(0); // never triggered here
        return true;
    });
    Run run{sw.elapsedSec(), sss.stats()};
    sss.discardAll();
    return run;
}

} // namespace

int
main()
{
    bool fast = fastMode();
    const Cycle maxCycles = fast ? 300'000 : 3'000'000;
    const uint64_t iters = fast ? 300 : 3000;

    // Intervals as fractions of the run, mirroring the paper's 1s-60s
    // sweep against a ~5.5 minute simulation.
    const Cycle intervals[] = {0, maxCycles / 64, maxCycles / 16,
                               maxCycles / 4, maxCycles / 2};
    const char *labels[] = {"disabled", "N/64", "N/16", "N/4", "N/2"};

    std::printf("=== Figure 6: simulation time vs LightSSS snapshot "
                "interval ===\n");
    std::printf("(run length %llu cycles; paper shape: flat across all "
                "intervals)\n\n",
                static_cast<unsigned long long>(maxCycles));

    for (unsigned cores = 1; cores <= 2; ++cores) {
        auto prog = cores == 1 ? wl::coremarkProxy(iters)
                               : wl::memStressProgram(iters * 30, 16);
        std::printf("%u-core XIANGSHAN (%s):\n", cores,
                    prog.name.c_str());
        std::printf("  %-10s %12s %10s %20s\n", "interval", "sim time",
                    "vs off", "COW faults/interval");
        double base = 0;
        for (unsigned i = 0; i < std::size(intervals); ++i) {
            Run run = runWithInterval(cores, prog, intervals[i],
                                      maxCycles);
            if (i == 0)
                base = run.sec;
            // Faults need two forks: "-" when the run ended first.
            std::string faults =
                run.sss.forks > 1
                    ? std::to_string(run.sss.faultsPerInterval())
                    : "-";
            std::printf("  %-10s %10.3fs %9.1f%% %20s\n", labels[i],
                        run.sec, base > 0 ? 100.0 * run.sec / base : 0.0,
                        faults.c_str());
        }
        std::printf("\n");
    }
    std::printf("expected shape: all rows within a few %% of 'disabled'"
                " (paper reports LightSSS overhead below measurement "
                "noise; LiveSim's comparable overhead is 10-20%%)\n");
    return 0;
}
