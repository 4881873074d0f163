/**
 * @file
 * Figure 9 + Section III-D3: the architectural checkpoint flow.
 *
 * Demonstrates and measures: checkpoint generation speed with NEMU per
 * pass (paper: >300 MIPS; CoreMark-PRO checkpoints), the `.mjk` pack's
 * page pool, and restore into the XIANGSHAN cycle model.
 */

#include "bench_util.h"

#include "checkpoint/generator.h"
#include "sample/store.h"

using namespace bench;
using namespace minjie;
using namespace minjie::checkpoint;

int
main()
{
    bool fast = fastMode();
    uint64_t iters = fast ? 300 : 5000;

    std::printf("=== Figure 9 / Section III-D3: RISC-V architectural "
                "checkpoints ===\n\n");

    // CoreMark(-PRO) stand-in, as in the paper's artifact.
    auto prog = wl::coremarkProxy(iters);
    auto gen = generateCheckpoints(prog, fast ? 20'000 : 200'000, 8,
                                   200'000'000);

    std::printf("workload: %s (%llu instructions)\n", prog.name.c_str(),
                static_cast<unsigned long long>(gen.totalInsts));
    std::printf("checkpoints generated: %zu (paper artifact: 8)\n",
                gen.checkpoints.size());
    std::printf("%-22s %9s %10s   (paper: >300 MIPS)\n", "", "MIPS",
                "seconds");
    std::printf("%-22s %9.1f %10.4f\n", "pass 1: BBV profile",
                gen.profileMips, gen.profileSec);
    std::printf("%-22s %9.1f %10.4f\n", "pass 2: snapshots",
                gen.generateMips, gen.generateSec);
    std::printf("pack: %zu pool pages, %zu page references, %zu pages "
                "hashed\n",
                gen.pack.poolPages(), gen.pack.totalPageRefs(),
                gen.pack.pagesHashed());

    sample::PackReader pack;
    if (!pack.openMemory(sample::packFromGen(gen))) {
        std::printf("pack parse FAILED\n");
        return 1;
    }
    std::printf("\n%-6s %14s %10s\n", "ckpt", "inst offset", "weight");
    hr('-', 32);
    for (size_t i = 0; i < pack.count(); ++i)
        std::printf("%-6zu %14llu %9.1f%%\n", i,
                    static_cast<unsigned long long>(pack.instCount(i)),
                    pack.weight(i) * 100.0);

    // Restore-and-run on XIANGSHAN (the "XIANGSHAN is able to restore
    // and run the generated RISC-V checkpoint" artifact step).
    std::printf("\nrestoring checkpoint 0 into the XIANGSHAN cycle "
                "model...\n");
    xs::Soc soc(xs::CoreConfig::nh());
    if (pack.count() > 0 &&
        pack.restoreInto(0, soc.core(0).oracleState(),
                         soc.system().dram)) {
        auto r = soc.runUntilInstrs(fast ? 5'000 : 50'000, 100'000'000);
        std::printf("ran %llu instructions in %llu cycles (ipc %.3f): "
                    "%s\n",
                    static_cast<unsigned long long>(
                        soc.core(0).perf().instrs),
                    static_cast<unsigned long long>(
                        soc.core(0).perf().cycles),
                    soc.core(0).perf().ipc(),
                    r.completed ? "OK" : "FAILED");
    } else {
        std::printf("restore FAILED\n");
        return 1;
    }
    return 0;
}
