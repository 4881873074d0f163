/**
 * @file
 * Figure 14: IPC difference with PUBS enabled on ten sjeng checkpoints.
 *
 * The paper's feature-exploration case study implements Prioritizing
 * Unconfident Branch Slices [Ando, MICRO'18] on XIANGSHAN and observes
 * NO visible IPC change vs the AGE baseline (whereas the original PUBS
 * paper reported +6.5% on sjeng on a narrower machine) — the wide
 * XIANGSHAN issue rarely has more ready instructions than issue slots.
 */

#include "bench_util.h"

using namespace bench;
using minjie::xs::CoreConfig;
using minjie::xs::IssuePolicy;

int
main()
{
    bool fast = fastMode();
    unsigned nCheckpoints = fast ? 3 : 10;
    InstCount budget = fast ? 60'000 : 300'000;

    const auto &sjeng = wl::specIntSuite()[5];

    std::printf("=== Figure 14: IPC difference with PUBS enabled "
                "(sjeng checkpoints) ===\n");
    std::printf("(paper shape: ~0%% across all checkpoints; the PUBS "
                "paper's own result was +6.5%%)\n\n");
    std::printf("%-12s %10s %10s %10s %12s\n", "checkpoint", "AGE ipc",
                "PUBS ipc", "delta", "hi-pri frac");
    hr('-', 60);

    std::vector<double> deltas;
    for (unsigned cp = 0; cp < nCheckpoints; ++cp) {
        // Each "checkpoint" is a distinct program fragment: the same
        // sjeng characteristics with a different generator seed.
        auto prog = wl::buildProxy(sjeng, 10'000'000, /*seed=*/cp + 1);

        CoreConfig age = CoreConfig::nh();
        age.policy = IssuePolicy::Age;
        double ageIpc = measureIpc(age, prog, budget);

        CoreConfig pubsCfg = CoreConfig::nh();
        pubsCfg.policy = IssuePolicy::Pubs;
        // Identical warm-measurement protocol for both policies.
        xs::Soc soc(pubsCfg);
        soc.loadProgram(prog);
        soc.runUntilInstrs(budget / 2, 400'000'000);
        Cycle wc = soc.core(0).perf().cycles;
        InstCount wi = soc.core(0).perf().instrs;
        soc.runUntilInstrs(budget, 400'000'000);
        double pubsIpc =
            static_cast<double>(soc.core(0).perf().instrs - wi) /
            static_cast<double>(
                std::max<Cycle>(1, soc.core(0).perf().cycles - wc));
        double hiFrac =
            100.0 *
            static_cast<double>(soc.core(0).perf().highPriorityInsts) /
            static_cast<double>(
                std::max<uint64_t>(1, soc.core(0).perf().instrs));

        double delta = ageIpc > 0 ? 100.0 * (pubsIpc / ageIpc - 1) : 0;
        deltas.push_back(delta);
        std::printf("sjeng_%-6u %10.3f %10.3f %+9.2f%% %11.1f%%\n",
                    cp, ageIpc, pubsIpc, delta, hiFrac);
    }
    hr('-', 60);
    double sum = 0, mx = 0;
    for (double d : deltas) {
        sum += d;
        mx = std::max(mx, std::abs(d));
    }
    std::printf("average delta: %+.2f%%  max |delta|: %.2f%%\n",
                sum / static_cast<double>(deltas.size()), mx);
    std::printf("(paper: no visible performance deviation; ~5.9%% of "
                "instructions were high-priority)\n");
    return 0;
}
