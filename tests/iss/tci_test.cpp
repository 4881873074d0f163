/**
 * QEMU-TCI proxy: blocks are translated where execution enters them
 * and executed by fall-through. Pins the translation count to one per
 * block entry, and checks TCI step(), TCI run(n) and Spike against
 * each other instruction by instruction on programs that enter blocks
 * in the middle, trap in the middle, patch their own code and run
 * under Sv39.
 */

#include <gtest/gtest.h>

#include <set>

#include "isa/decode.h"
#include "iss/interp.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::isa;
using namespace minjie::iss;
namespace wl = minjie::workload;

wl::Program
program(wl::Asm &a)
{
    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());
    return prog;
}

/** @p n addi instructions, then `j .`. */
wl::Program
straightLine(unsigned n)
{
    wl::Asm a(wl::Layout{}.codeBase);
    for (unsigned i = 0; i < n; ++i)
        a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.j(a.boundLabel());
    return program(a);
}

/** A 10-iteration loop: li; loop: addi; addi; bne loop; then `j .`. */
wl::Program
loop()
{
    wl::Asm a(wl::Layout{}.codeBase);
    a.li(wl::t0, 10);
    wl::Label top = a.boundLabel();
    a.itype(Op::Addi, wl::t1, wl::t1, 1);
    a.itype(Op::Addi, wl::t0, wl::t0, -1);
    a.branch(Op::Bne, wl::t0, wl::zero, top);
    a.j(a.boundLabel());
    return program(a);
}

/**
 * Branches into the middle of the first block, which is already
 * translated: an inner loop re-enters at `mid`, an outer one at `top`.
 */
wl::Program
midBlockBranches()
{
    wl::Asm a(wl::Layout{}.codeBase);
    a.li(wl::t1, 3);
    a.li(wl::t2, 2);
    wl::Label top = a.boundLabel();
    a.itype(Op::Addi, wl::a0, wl::a0, 1);
    wl::Label mid = a.boundLabel();
    a.itype(Op::Addi, wl::a0, wl::a0, 2);
    a.itype(Op::Addi, wl::s2, wl::s2, 1);
    a.branch(Op::Blt, wl::s2, wl::t1, mid);
    a.itype(Op::Addi, wl::s3, wl::s3, 1);
    a.li(wl::s2, 0);
    a.branch(Op::Blt, wl::s3, wl::t2, top);
    a.exit(0);
    return program(a);
}

constexpr uint32_t ILLEGAL_WORD = 0xffffffff;

/**
 * An ecall, a load access fault and an illegal instruction, each in the
 * middle of straight-line code. The M-mode handler counts traps in s4
 * and resumes after the trapping instruction, which re-enters the
 * block the trap left.
 */
wl::Program
midBlockTraps()
{
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::t0, layout.auxCode);
    a.csr(Op::Csrrw, wl::zero, CSR_MTVEC, wl::t0);
    a.itype(Op::Addi, wl::a0, wl::a0, 1);
    a.itype(Op::Ecall, 0, 0, 0);
    a.itype(Op::Addi, wl::a0, wl::a0, 2);
    a.load(Op::Ld, wl::a1, 0, wl::zero); // address 0 is outside DRAM
    a.itype(Op::Addi, wl::a0, wl::a0, 4);
    for (unsigned i = 0; i < 4; ++i)
        a.bytes({static_cast<uint8_t>(ILLEGAL_WORD >> (8 * i))});
    a.itype(Op::Addi, wl::a0, wl::a0, 8);
    a.exit(0);

    wl::Asm h(layout.auxCode);
    h.csr(Op::Csrrs, wl::t3, CSR_MEPC, wl::zero);
    h.itype(Op::Addi, wl::t3, wl::t3, 4);
    h.csr(Op::Csrrw, wl::zero, CSR_MEPC, wl::t3);
    h.itype(Op::Addi, wl::s4, wl::s4, 1);
    h.itype(Op::Mret, 0, 0, 0);

    wl::Program prog = program(a);
    prog.segments.push_back(h.finish());
    return prog;
}

/** Steps @p prog on a TciInterp @p steps times; returns the engine's
 *  translation count. */
uint64_t
translationsAfter(const wl::Program &prog, unsigned steps,
                  ArchState *out = nullptr)
{
    System sys(32);
    prog.loadInto(sys.dram);
    TciInterp tci(sys.bus, 0, prog.entry);
    for (unsigned i = 0; i < steps; ++i)
        EXPECT_FALSE(tci.step().pending()) << "step " << i;
    if (out)
        *out = tci.state();
    return tci.blocksTranslated();
}

TEST(TciTranslation, StraightLineIsOneBlock)
{
    // 16 addi + the j: one block. The j lands on itself, the middle of
    // that block, which is a new entry.
    auto prog = straightLine(16);
    EXPECT_EQ(translationsAfter(prog, 16), 1u);
    EXPECT_EQ(translationsAfter(prog, 17), 1u);
    EXPECT_EQ(translationsAfter(prog, 18), 2u);
    ArchState st;
    EXPECT_EQ(translationsAfter(prog, 40, &st), 2u);
    EXPECT_EQ(st.x[wl::a0], 16u);
}

TEST(TciTranslation, LoopIsOneBlockPerEntry)
{
    // Entries: the first pc, the loop head (middle of the first block,
    // translated once for all 9 back edges) and the exit `j .`.
    auto prog = loop();
    EXPECT_EQ(translationsAfter(prog, 4), 1u);
    EXPECT_EQ(translationsAfter(prog, 5), 2u);
    ArchState st;
    EXPECT_EQ(translationsAfter(prog, 1 + 3 * 10, &st), 2u);
    EXPECT_EQ(st.x[wl::t1], 10u);
    EXPECT_EQ(translationsAfter(prog, 1 + 3 * 10 + 5), 3u);
}

void
expectSameState(const ArchState &want, const ArchState &got,
                uint64_t step, const char *engine)
{
    SCOPED_TRACE(::testing::Message()
                 << engine << " after " << step << " instructions");
    ASSERT_EQ(want.pc, got.pc);
    for (unsigned r = 0; r < 32; ++r) {
        ASSERT_EQ(want.x[r], got.x[r]) << "x" << r;
        ASSERT_EQ(want.f[r], got.f[r]) << "f" << r;
    }
    ASSERT_EQ(want.csr.fflags, got.csr.fflags);
    ASSERT_EQ(want.priv, got.priv);
    ASSERT_EQ(want.csr.mstatus, got.csr.mstatus);
    ASSERT_EQ(want.csr.mepc, got.csr.mepc);
    ASSERT_EQ(want.csr.mcause, got.csr.mcause);
    ASSERT_EQ(want.csr.satp, got.csr.satp);
    ASSERT_EQ(want.instret, got.instret);
}

/**
 * Runs @p prog on Spike, on TCI one step() at a time, and on TCI by
 * run(n) with n cycling through 1..7, comparing after every step (and
 * every run). Returns the trap causes seen; @p exitCode receives the
 * SimCtrl exit code.
 */
std::set<Exc>
checkEquivalent(const wl::Program &prog, uint64_t &exitCode)
{
    System sysSpike(64), sysStep(64), sysRun(64);
    for (System *s : {&sysSpike, &sysStep, &sysRun})
        prog.loadInto(s->dram);
    SpikeInterp spike(sysSpike.bus, 0, prog.entry);
    TciInterp step(sysStep.bus, 0, prog.entry);
    TciInterp run(sysRun.bus, 0, prog.entry);

    std::set<Exc> traps;
    uint64_t n = 0, runAt = 0;
    unsigned chunk = 1;
    while (!sysSpike.simctrl.exited() && n < 100'000) {
        Trap ts = spike.step();
        Trap tt = step.step();
        ++n;
        EXPECT_EQ(ts.cause, tt.cause) << "step " << n;
        if (ts.pending())
            traps.insert(ts.cause);
        expectSameState(spike.state(), step.state(), n, "TCI step()");
        if (::testing::Test::HasFatalFailure())
            return traps;
        if (n - runAt == chunk || sysSpike.simctrl.exited()) {
            run.run(n - runAt);
            runAt = n;
            chunk = chunk % 7 + 1;
            expectSameState(spike.state(), run.state(), n, "TCI run(n)");
            if (::testing::Test::HasFatalFailure())
                return traps;
        }
    }
    EXPECT_TRUE(sysSpike.simctrl.exited());
    EXPECT_TRUE(sysStep.simctrl.exited());
    EXPECT_TRUE(sysRun.simctrl.exited());
    EXPECT_EQ(sysStep.simctrl.exitCode(), sysSpike.simctrl.exitCode());
    EXPECT_EQ(sysRun.simctrl.exitCode(), sysSpike.simctrl.exitCode());
    exitCode = sysSpike.simctrl.exitCode();
    return traps;
}

TEST(TciEquivalence, BranchIntoTranslatedBlock)
{
    uint64_t code = ~0ULL;
    auto traps = checkEquivalent(midBlockBranches(), code);
    EXPECT_EQ(code, 0u);
    EXPECT_TRUE(traps.empty());
}

TEST(TciEquivalence, TrapsInMidBlock)
{
    ASSERT_EQ(decode(ILLEGAL_WORD).op, Op::Illegal);
    uint64_t code = ~0ULL;
    auto traps = checkEquivalent(midBlockTraps(), code);
    EXPECT_EQ(code, 0u);
    EXPECT_EQ(traps, (std::set<Exc>{Exc::EcallFromM, Exc::LoadAccessFault,
                                    Exc::IllegalInst}));
}

TEST(TciEquivalence, FenceISelfModifyingCode)
{
    uint64_t code = 0;
    checkEquivalent(wl::smcProgram(), code);
    EXPECT_EQ(code, 8u);
}

TEST(TciEquivalence, Sv39Program)
{
    uint64_t code = ~0ULL;
    checkEquivalent(wl::sv39Program(), code);
    EXPECT_EQ(code, 0u);
}

} // namespace
