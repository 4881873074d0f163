/**
 * @file
 * The Section IV-D feature-exploration case study: implement and
 * evaluate an academic micro-architecture idea (PUBS, [Ando MICRO'18])
 * on XIANGSHAN "within hours".
 *
 * The PUBS issue policy is already implemented as a CoreConfig switch
 * (the paper's four components — ConfTable / BrSliceTable / DefTable /
 * PriorityIssue — map onto TAGE confidence, the rename-map producer
 * walk, and the priority-first selection in the reservation stations).
 * This example reproduces the evaluation narrative: measure AGE vs
 * PUBS on sjeng, then explain the null result with the ready-count
 * counters of Figure 15.
 *
 * Build & run:  ./build/examples/pubs_exploration
 */

#include <cstdio>

#include "workload/programs.h"
#include "xiangshan/soc.h"

using namespace minjie;
using namespace minjie::xs;
namespace wl = minjie::workload;

namespace {

struct Measurement
{
    double ipc;
    double readyGt2Pct;
    double hiPriPct;
};

Measurement
run(IssuePolicy policy, const wl::Program &prog)
{
    CoreConfig cfg = CoreConfig::nh();
    cfg.policy = policy;
    Soc soc(cfg);
    soc.loadProgram(prog);
    soc.runUntilInstrs(250'000, 100'000'000);

    const auto &p = soc.core(0).perf();
    double gt2 = 0;
    for (unsigned b = 3; b < PerfCounters::READY_BUCKETS; ++b)
        gt2 += static_cast<double>(p.readyHist[b]);
    return {p.ipc(),
            p.readySamples
                ? 100.0 * gt2 / static_cast<double>(p.readySamples)
                : 0.0,
            p.instrs ? 100.0 * static_cast<double>(p.highPriorityInsts) /
                           static_cast<double>(p.instrs)
                     : 0.0};
}

} // namespace

int
main()
{
    std::printf("=== Feature exploration: PUBS on XIANGSHAN (paper "
                "Section IV-D) ===\n\n");
    std::printf("Paper timeline: 4 iterative features, <200 minutes, "
                "~300 lines of Chisel.\n");
    std::printf("Here: IssuePolicy::Pubs + markPubsSlice() in the "
                "cycle model (~60 lines of C++).\n\n");

    std::printf("%-10s %10s %10s %12s %12s\n", "checkpoint", "AGE ipc",
                "PUBS ipc", "delta", "hi-pri insts");
    for (int seed = 1; seed <= 5; ++seed) {
        auto prog = wl::buildProxy(wl::specIntSuite()[5], 1'000'000,
                                   seed); // sjeng
        auto age = run(IssuePolicy::Age, prog);
        auto pubs = run(IssuePolicy::Pubs, prog);
        std::printf("sjeng_%-4d %10.3f %10.3f %+11.2f%% %11.1f%%\n",
                    seed, age.ipc, pubs.ipc,
                    age.ipc ? 100.0 * (pubs.ipc / age.ipc - 1) : 0.0,
                    pubs.hiPriPct);
    }

    // The explanatory counters (paper Figure 15 analysis).
    auto prog = wl::buildProxy(wl::specIntSuite()[5], 1'000'000, 1);
    auto age = run(IssuePolicy::Age, prog);
    std::printf("\nwhy the null result: only %.1f%% of RS-cycles have "
                ">2 ready instructions\n(paper: 12.8%%), so the "
                "priority selector almost never gets to reorder;\n"
                "XIANGSHAN's wide distributed issue absorbs the "
                "unconfident slices that PUBS\nwould have accelerated "
                "on a narrower machine (the PUBS paper reported +6.5%% "
                "on sjeng).\n",
                age.readyGt2Pct);
    return 0;
}
