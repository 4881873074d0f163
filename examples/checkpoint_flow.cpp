/**
 * @file
 * The Section III-D performance-evaluation workflow:
 *
 *   profile (NEMU + BBV)  ->  SimPoint clustering  ->  `.mjk` pack  ->
 *   restore each checkpoint into a XIANGSHAN instance  ->  weighted
 *   CPI estimate with exact integer weights,
 *
 * compared against the full-program cycle simulation (the paper's RTL
 * simulation deviates 5-10% from hardware; our estimate's error is
 * dominated by micro-architectural warmup, which the paper names as
 * future work).
 *
 * Build & run:  ./build/examples/checkpoint_flow
 */

#include <algorithm>
#include <cstdio>

#include "checkpoint/generator.h"
#include "sample/engine.h"
#include "xiangshan/soc.h"

using namespace minjie;
using namespace minjie::checkpoint;
namespace wl = minjie::workload;

int
main()
{
    auto prog = wl::buildProxy(wl::specIntSuite()[4], 4000); // hmmer
    std::printf("workload: %s proxy\n\n", prog.name.c_str());

    // ---- full-program reference measurement ----
    std::printf("[1/3] full cycle-model run...\n");
    xs::Soc full(xs::CoreConfig::nh());
    full.loadProgram(prog);
    auto r = full.run(100'000'000);
    double fullIpc = full.core(0).perf().ipc();
    std::printf("      %llu instructions, ipc %.3f%s\n",
                static_cast<unsigned long long>(full.core(0).perf().instrs),
                fullIpc, r.completed ? "" : " (cycle limit)");

    // ---- checkpoint generation ----
    std::printf("[2/3] profiling + SimPoint + checkpoint generation...\n");
    // Profile the first 600k of the program's ~649k instructions, so
    // every checkpoint leaves room for its 80k-instruction warmup and
    // window below: a slice cut short by the exit would fail.
    auto gen = generateCheckpoints(prog, 100'000, 6, 600'000);
    std::printf("      %llu instructions profiled at %.0f MIPS; "
                "%zu checkpoints generated at %.0f MIPS\n",
                static_cast<unsigned long long>(gen.totalInsts),
                gen.profileMips, gen.checkpoints.size(),
                gen.generateMips);

    // ---- parallel-style estimation (sequential here; the paper
    // spreads ~1K checkpoints over five 128-core servers) ----
    std::printf("[3/3] restoring checkpoints into XIANGSHAN...\n");
    sample::PackReader pack;
    if (!pack.openMemory(sample::packFromGen(gen))) {
        std::printf("      pack parse FAILED\n");
        return 1;
    }
    // Warmup then measure (paper: 20M + 20M; scaled down here), one
    // slice per checkpoint, reduced with the exact integer weights.
    sample::SampleConfig cfg;
    cfg.warmupInsts = 30'000;
    cfg.measureInsts = 50'000;
    cfg.maxCycles = 100'000'000;
    auto rep = sample::runSampled(pack, cfg);
    for (size_t i = 0; i < pack.count(); ++i) {
        const auto &s = rep.slices[i];
        if (!s.ok) {
            std::printf("      checkpoint %zu: FAILED (measured %llu of "
                        "%llu instrs)\n",
                        i, static_cast<unsigned long long>(s.instrs),
                        static_cast<unsigned long long>(cfg.measureInsts));
            return 1;
        }
        std::printf("      checkpoint %zu @%9llu insts  weight %llu/%llu  "
                    "cpi %.3f\n",
                    i, static_cast<unsigned long long>(pack.instCount(i)),
                    static_cast<unsigned long long>(pack.weightNum(i)),
                    static_cast<unsigned long long>(pack.weightDen()),
                    static_cast<double>(s.cycles) /
                        static_cast<double>(std::max<uint64_t>(1, s.instrs)));
    }

    double estCpi = rep.weightedCpi();
    double estIpc = estCpi > 0 ? 1.0 / estCpi : 0;
    std::printf("\nweighted estimate: ipc %.3f   full run: ipc %.3f   "
                "deviation: %+.1f%%\n",
                estIpc, fullIpc,
                fullIpc > 0 ? 100.0 * (estIpc / fullIpc - 1) : 0.0);
    std::printf("(paper: 5-10%% deviation against silicon; warmup "
                "dominates the error)\n");
    return 0;
}
