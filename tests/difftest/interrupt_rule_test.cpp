/**
 * Asynchronous-interrupt diff-rule (the Dromajo approach the paper
 * extends, Sections II-B and V-C): the DUT takes CLINT timer/software
 * interrupts at micro-architecturally determined instants; the REF is
 * told when through the commit probe and forced to take the same
 * interrupt.
 */

#include <gtest/gtest.h>

#include "difftest/difftest.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::difftest;
namespace wl = minjie::workload;

/** mtvec handler counts timer interrupts, re-arms mtimecmp, and exits
 *  after three of them; the main loop just spins on an add. */
wl::Program
timerProgram()
{
    wl::Layout layout;
    const Addr clint = mem::Clint::DEFAULT_BASE;
    wl::Asm a(layout.codeBase);

    wl::Label handler = a.newLabel();
    a.li(wl::t0, 0x80000200);
    a.csr(isa::Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);

    // mtimecmp[hart0] = mtime + 300 (absolute device addresses in
    // registers: the offsets exceed 12-bit immediates)
    a.li(wl::s0, clint + 0xbff8);  // &mtime
    a.load(isa::Op::Ld, wl::t1, 0, wl::s0);
    a.itype(isa::Op::Addi, wl::t1, wl::t1, 300);
    a.li(wl::t2, clint + 0x4000);  // &mtimecmp[0]
    a.store(isa::Op::Sd, wl::t1, 0, wl::t2);

    // Enable MTIE and global MIE.
    a.li(wl::t0, isa::MIP_MTIP);
    a.csr(isa::Op::Csrrs, wl::zero, isa::CSR_MIE, wl::t0);
    a.li(wl::t0, isa::MSTATUS_MIE);
    a.csr(isa::Op::Csrrs, wl::zero, isa::CSR_MSTATUS, wl::t0);

    // Main loop: spin.
    wl::Label loop = a.boundLabel();
    a.itype(isa::Op::Addi, wl::s6, wl::s6, 1);
    a.j(loop);

    while (a.here() < 0x80000200)
        a.nop();
    a.bind(handler);
    a.itype(isa::Op::Addi, wl::s11, wl::s11, 1); // interrupt count
    // Re-arm: mtimecmp = mtime + 300.
    a.load(isa::Op::Ld, wl::t1, 0, wl::s0);
    a.itype(isa::Op::Addi, wl::t1, wl::t1, 300);
    a.store(isa::Op::Sd, wl::t1, 0, wl::t2);
    a.li(wl::t3, 3);
    wl::Label ret = a.newLabel();
    a.branch(isa::Op::Bne, wl::s11, wl::t3, ret);
    a.exit(0);
    a.bind(ret);
    a.itype(isa::Op::Mret, 0, 0, 0);

    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    return prog;
}

TEST(InterruptRule, TimerInterruptsForcedIntoRef)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    auto prog = timerProgram();
    dt.loadProgram(prog);

    dt.run(2'000'000);

    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_EQ(soc.system().simctrl.exitCode(), 0u);
    EXPECT_EQ(dt.stats().forcedInterrupts, 3u);
    // The handler ran exactly three times.
    EXPECT_EQ(dt.ref(0).state().x[wl::s11], 3u);
    EXPECT_EQ(soc.core(0).oracleState().x[wl::s11], 3u);
}

TEST(InterruptRule, DisabledRuleFlagsDivergence)
{
    xs::Soc soc(xs::CoreConfig::nh());
    RuleConfig rules;
    rules.forcedInterrupt = false;
    DiffTest dt(soc, rules);
    dt.loadProgram(timerProgram());

    dt.run(2'000'000);
    ASSERT_FALSE(dt.ok());
    EXPECT_NE(dt.failures().front().find("interrupt"),
              std::string::npos);
}

TEST(InterruptRule, WorkloadsWithoutMieUnaffected)
{
    // Programs that never enable MIE must see zero interrupts even
    // though the CLINT mtime advances past the reset mtimecmp (~0).
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::sumProgram(2000));
    dt.run(2'000'000);
    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_EQ(dt.stats().forcedInterrupts, 0u);
}

} // namespace
