/**
 * @file
 * BBV profiling inside NEMU's threaded engine (Nemu::profileBbvs),
 * checked against a single-step oracle kept here: the block definition
 * SimPoint relies on, evaluated one instruction at a time on a
 * decode-every-fetch interpreter. A block is a maximal run of retired
 * instructions ending at a control, system or trapping instruction; a
 * faulting fetch retires nothing and ends no block; an interval closes
 * at the first block end at or past the interval length.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/csr.h"
#include "isa/decode.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "workload/asm.h"
#include "workload/programs.h"
#include "workload/shrinkable.h"

namespace {

using namespace minjie;
using isa::Op;
using nemu::Bbv;
using nemu::Nemu;
namespace wl = minjie::workload;

std::vector<Bbv>
oracleBbvs(const wl::Program &prog, InstCount interval, InstCount budget)
{
    iss::System sys(64);
    prog.loadInto(sys.dram);
    iss::DromajoInterp it(sys.bus, 0, prog.entry);
    std::vector<Bbv> out;
    Bbv cur;
    InstCount inInterval = 0, len = 0;
    Addr start = 0;
    for (InstCount n = 0; n < budget && !sys.simctrl.exited(); ++n) {
        uint32_t raw = 0;
        bool fetched = !it.mmu().fetch(it.state().pc, raw).pending();
        Op op = isa::decode(raw).op;
        if (fetched && len++ == 0)
            start = it.state().pc;
        bool trapped = it.step().pending();
        if (fetched && (isa::isControl(op) || isa::isSystem(op) || trapped)) {
            cur[start] += len;
            inInterval += len;
            len = 0;
            if (inInterval >= interval) {
                out.push_back(std::move(cur));
                cur.clear();
                inInterval = 0;
            }
        }
    }
    if (!cur.empty())
        out.push_back(std::move(cur));
    return out;
}

std::vector<Bbv>
nemuBbvs(const wl::Program &prog, InstCount interval, InstCount budget,
         bool chain = true)
{
    iss::System sys(64);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    nemu.setChainingEnabled(chain);
    nemu.profileBbvs(interval);
    nemu.run(budget);
    return nemu.takeBbvs();
}

/**
 * A loop that traps three ways per trip — ecall, a load access fault
 * and an illegal instruction, each resumed past by the handler — runs
 * fence.i (a uop-cache flush inside a block), and jumps to an unmapped
 * address, whose fetch fault the handler returns from through ra.
 */
wl::Program
trappingProgram()
{
    const wl::Layout layout;
    wl::Asm a(layout.codeBase);
    wl::Label start = a.newLabel(), fetchFault = a.newLabel(),
              loop = a.newLabel();
    a.j(start);
    const Addr handler = a.here();
    a.csr(Op::Csrrs, wl::t1, isa::CSR_MCAUSE, wl::zero);
    a.branch(Op::Beq, wl::t1, wl::zero, fetchFault); // instr misaligned
    a.li(wl::t2, 1);
    a.branch(Op::Beq, wl::t1, wl::t2, fetchFault); // instr access fault
    a.csr(Op::Csrrs, wl::t1, isa::CSR_MEPC, wl::zero);
    a.itype(Op::Addi, wl::t1, wl::t1, 4);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MEPC, wl::t1);
    a.itype(Op::Mret, 0, 0, 0);
    a.bind(fetchFault);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MEPC, wl::ra);
    a.itype(Op::Mret, 0, 0, 0);

    a.bind(start);
    a.li(wl::t0, handler);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    a.li(wl::s1, 40);
    a.li(wl::s2, 0x100); // unmapped: below DRAM, no device
    a.bind(loop);
    a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.itype(Op::Ecall, 0, 0, 0);
    a.itype(Op::Addi, wl::a0, wl::a0, 2);
    a.load(Op::Ld, wl::t2, 0, wl::s2);
    a.bytes({0, 0, 0, 0}); // illegal
    a.itype(Op::Addi, wl::a0, wl::a0, 3);
    a.itype(Op::FenceI, 0, 0, 0);
    a.itype(Op::Addi, wl::a0, wl::a0, 4);
    a.itype(Op::Jalr, wl::ra, wl::s2, 0);
    a.itype(Op::Addi, wl::s1, wl::s1, -1);
    a.branch(Op::Bne, wl::s1, wl::zero, loop);
    a.exit(0);
    wl::Program prog;
    prog.name = "trapping";
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    return prog;
}

uint64_t
total(const std::vector<Bbv> &bbvs)
{
    uint64_t n = 0;
    for (const Bbv &b : bbvs)
        for (const auto &[pc, count] : b)
            n += count;
    return n;
}

TEST(NemuBbv, MatchesSingleStepOracle)
{
    struct Case
    {
        std::string name;
        wl::Program prog;
        InstCount interval, budget;
    };
    std::vector<Case> cases = {
        {"trapping", trappingProgram(), 37, 100'000},
        {"sv39", wl::sv39Program(), 53, 100'000},
        {"sum", wl::sumProgram(2000), 1000, 100'000},
        {"coremark", wl::coremarkProxy(20), 997, 20'000},
    };
    for (const auto *suite : {&wl::specIntSuite(), &wl::specFpSuite()})
        for (const auto &spec : *suite)
            cases.push_back({spec.name, wl::buildProxy(spec, 1000), 2039,
                             20'000});
    for (uint64_t seed = 0; seed < 12; ++seed) {
        Rng rng(0xbb0 + seed);
        wl::RandomSpec spec;
        spec.nInsts = 300;
        spec.withFp = seed % 2 == 0;
        spec.withRvc = seed % 3 != 2;
        cases.push_back({"random#" + std::to_string(seed),
                         wl::randomShrinkable(rng, spec).assemble(), 41,
                         100'000});
    }

    for (const Case &c : cases) {
        auto want = oracleBbvs(c.prog, c.interval, c.budget);
        ASSERT_FALSE(want.empty()) << c.name;
        EXPECT_EQ(nemuBbvs(c.prog, c.interval, c.budget), want) << c.name;
        EXPECT_EQ(nemuBbvs(c.prog, c.interval, c.budget, false), want)
            << c.name << " (chaining off)";
    }
}

TEST(NemuBbv, SplitsIntervals)
{
    // sum(1200) retires ~3600 instructions in 1200 three-instruction
    // loop blocks: three full intervals of 1000, each closed by the
    // first block end at or past the length, plus a partial one.
    auto prog = wl::sumProgram(1200);
    iss::System sys(32);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    nemu.profileBbvs(1000);
    auto r = nemu.run(100'000);
    ASSERT_TRUE(r.halted);
    auto bbvs = nemu.takeBbvs();
    ASSERT_EQ(bbvs.size(), 4u);
    for (size_t i = 0; i + 1 < bbvs.size(); ++i) {
        EXPECT_GE(total({bbvs[i]}), 1000u) << i;
        EXPECT_LT(total({bbvs[i]}), 1010u) << i;
    }
    // Every retired instruction is counted except the block open when
    // the run stopped (the exit sequence).
    EXPECT_LE(total(bbvs), r.executed);
    EXPECT_GT(total(bbvs), r.executed - 10);
}

TEST(NemuBbv, TakeIsIdempotentAndResetsForResume)
{
    auto prog = wl::sumProgram(1000);
    iss::System sys(32);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });

    nemu.profileBbvs(1000);
    nemu.run(600);
    auto first = nemu.takeBbvs();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_LE(total(first), 600u);
    // A second take finds no profile: no phantom interval.
    EXPECT_TRUE(nemu.takeBbvs().empty());

    // Unprofiled runs count nothing; a resumed profile starts a fresh
    // count, so 600 more instructions must NOT close an interval.
    nemu.run(600);
    nemu.profileBbvs(1000);
    nemu.run(600);
    EXPECT_EQ(nemu.takeBbvs().size(), 1u);
    nemu.profileBbvs(1000);
    nemu.run(1100);
    auto resumed = nemu.takeBbvs();
    ASSERT_EQ(resumed.size(), 2u) << "1100 >= 1000 closes one interval";
    EXPECT_GE(total({resumed[0]}), 1000u);
}

} // namespace
