/**
 * @file
 * Multi-core co-simulation with the Global Memory diff-rule (paper
 * Section III-B2b): two cores hammer a shared lock-free counter with
 * lr/sc and plain loads/stores; each core's single-core REF cannot know
 * the other hart's stores, so DiffTest reconciles load values through
 * the Global Memory while the permission scoreboard audits the cache
 * coherence transactions underneath.
 *
 * Build & run:  ./build/examples/multicore_difftest
 */

#include <cstdio>

#include "difftest/difftest.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

using namespace minjie;
namespace wl = minjie::workload;

namespace {

/** Both harts: atomically increment a shared counter 500 times with
 *  lr/sc retry loops, then spin on a flag word written by hart 0. */
wl::Program
sharedCounterProgram()
{
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    const Addr counter = layout.dataBase;

    a.li(wl::s0, counter);
    a.li(wl::s2, 500);

    wl::Label loop = a.newLabel();
    wl::Label done = a.newLabel();
    a.bind(loop);
    a.branch(isa::Op::Beq, wl::s2, wl::zero, done);
    // retry: lr/sc increment. The always-taken branch between lr and
    // sc forces them into different fetch groups so the sibling hart
    // can interleave stores into the reservation window — the paper's
    // "SC instructions are allowed to fail on a timeout between the LR
    // and SC" scenario.
    wl::Label retry = a.boundLabel();
    a.rtype(isa::Op::LrD, wl::t1, wl::s0, 0);
    wl::Label cont = a.newLabel();
    a.branch(isa::Op::Beq, wl::t1, wl::t1, cont); // always taken
    a.bind(cont);
    a.itype(isa::Op::Addi, wl::t1, wl::t1, 1);
    a.rtype(isa::Op::ScD, wl::t2, wl::s0, wl::t1);
    a.branch(isa::Op::Bne, wl::t2, wl::zero, retry);
    // plus a plain shared-memory read/write pair
    a.load(isa::Op::Ld, wl::t3, 8, wl::s0);
    a.rtype(isa::Op::Add, wl::t3, wl::t3, wl::t1);
    a.store(isa::Op::Sd, wl::t3, 8, wl::s0);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.j(loop);

    a.bind(done);
    a.exit(0);

    wl::Program prog;
    prog.name = "shared-counter";
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    prog.segments.push_back({layout.dataBase,
                             std::vector<uint8_t>(64, 0)});
    return prog;
}

} // namespace

int
main()
{
    std::printf("=== dual-core DiffTest with the Global Memory rule "
                "===\n\n");

    xs::Soc soc(xs::CoreConfig::nh(), 2);
    difftest::DiffTest dt(soc);

    auto prog = sharedCounterProgram();
    dt.loadProgram(prog);

    Cycle cycles = dt.run(20'000'000);

    uint64_t counter = 0;
    soc.system().dram.read(0x80100000, 8, counter);

    std::printf("simulated %llu cycles\n",
                static_cast<unsigned long long>(cycles));
    std::printf("shared counter final value: %llu (first-exiting hart "
                "did 500; the\n  other stopped at the shared halt, so "
                "slightly under 1000 is expected;\n  every increment "
                "that DID commit is atomic)\n",
                static_cast<unsigned long long>(counter));
    std::printf("commits checked:        %llu\n",
                static_cast<unsigned long long>(
                    dt.stats().commitsChecked));
    std::printf("global-memory patches:  %llu  <- cross-core values "
                "reconciled\n",
                static_cast<unsigned long long>(
                    dt.stats().globalMemoryPatches));
    std::printf("forced SC failures:     %llu  <- sc-failure diff-rule\n",
                static_cast<unsigned long long>(
                    dt.stats().forcedScFailures));
    std::printf("coherence transactions: %llu, scoreboard %s\n",
                static_cast<unsigned long long>(
                    dt.scoreboard().transactionsChecked()),
                dt.scoreboard().ok() ? "clean" : "VIOLATED");
    std::printf("difftest verdict:       %s\n",
                dt.ok() ? "PASS" : dt.failures().front().c_str());
    return dt.ok() && dt.scoreboard().ok() ? 0 : 1;
}
