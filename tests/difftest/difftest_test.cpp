#include <gtest/gtest.h>

#include "difftest/difftest.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::difftest;
namespace wl = minjie::workload;

TEST(DiffTest, CleanRunPasses)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::sumProgram(500));
    dt.run(2'000'000);
    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_GT(dt.stats().commitsChecked, 1500u);
    // The SimCtrl exit store is MMIO: skip rule must have fired.
    EXPECT_GE(dt.stats().mmioSkips, 1u);
}

TEST(DiffTest, ProxyBenchmarkPasses)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::buildProxy(wl::specIntSuite()[5], 20));
    dt.run(10'000'000);
    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_GT(dt.stats().commitsChecked, 2000u);
}

TEST(DiffTest, FpProxyPasses)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::buildProxy(wl::specFpSuite()[5], 20));
    dt.run(10'000'000);
    EXPECT_TRUE(dt.ok()) << dt.failures().front();
}

TEST(DiffTest, CatchesInjectedLoadFault)
{
    // The Section IV-C scenario: a fault in the memory system corrupts
    // one load value; the checkers must flag it at commit.
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::coremarkProxy(5));

    std::string firstMismatch;
    dt.setOnMismatch([&](const std::string &m) { firstMismatch = m; });
    soc.core(0).injectLoadFault(0x1);
    dt.run(10'000'000);

    ASSERT_FALSE(dt.ok());
    EXPECT_NE(firstMismatch.find("rd mismatch"), std::string::npos)
        << firstMismatch;
}

TEST(DiffTest, AbortsAtFirstMismatch)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::coremarkProxy(50));
    soc.core(0).injectLoadFault(0xdead);
    Cycle cycles = dt.run(10'000'000);
    ASSERT_FALSE(dt.ok());
    // The co-simulation stops early, well before program completion.
    EXPECT_LT(cycles, 10'000'000u);
    EXPECT_EQ(dt.failures().size(), 1u);
}

TEST(DiffTest, DualCoreGlobalMemoryRule)
{
    // Two cores run the same program against shared data; the
    // single-core REFs disagree on cross-core stores and the Global
    // Memory rule reconciles them.
    xs::Soc soc(xs::CoreConfig::nh(), 2);
    DiffTest dt(soc);

    // A program where both harts increment a shared counter array.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::s0, layout.dataBase);
    a.li(wl::s2, 400);
    wl::Label loop = a.boundLabel();
    a.load(isa::Op::Ld, wl::t1, 0, wl::s0);
    a.itype(isa::Op::Addi, wl::t1, wl::t1, 1);
    a.store(isa::Op::Sd, wl::t1, 0, wl::s0);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.branch(isa::Op::Bne, wl::s2, wl::zero, loop);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    prog.segments.push_back({layout.dataBase,
                             std::vector<uint8_t>(64, 0)});

    dt.loadProgram(prog);
    dt.run(5'000'000);
    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    // The REFs must have needed the rule (both harts touch the slot).
    EXPECT_GT(dt.stats().globalMemoryPatches, 0u);
}

TEST(DiffTest, SingleCoreDroppedOverwriteIsCaught)
{
    // With one core no other hart can store, so a load returning an
    // older value of the slot is a bug even when this hart stored that
    // value earlier. amoswap.d writes 0x1111, the next sd of 0x2222 is
    // dropped, and the reload must be flagged, not patched into the REF.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::s0, layout.dataBase);
    a.li(wl::t0, 0x1111);
    a.rtype(isa::Op::AmoSwapD, wl::t1, wl::s0, wl::t0);
    a.li(wl::t2, 0x2222);
    a.store(isa::Op::Sd, wl::t2, 0, wl::s0);
    a.load(isa::Op::Ld, wl::t3, 0, wl::s0);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    prog.segments.push_back({layout.dataBase,
                             std::vector<uint8_t>(64, 0)});

    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(prog);
    soc.core(0).injectDropStore();
    dt.run(1'000'000);

    ASSERT_FALSE(dt.ok());
    EXPECT_EQ(dt.stats().globalMemoryPatches, 0u);
    const auto &why = dt.failures().front();
    EXPECT_NE(why.find("rd mismatch"), std::string::npos) << why;
    EXPECT_NE(why.find("dut=0x1111 ref=0x2222"), std::string::npos) << why;
    EXPECT_EQ(dt.divergence().kind, DivergenceReport::Kind::Rd);
    EXPECT_EQ(dt.divergence().reg, unsigned{wl::t3});
}

TEST(DiffTest, ScoreboardCleanOnCoherentRun)
{
    xs::Soc soc(xs::CoreConfig::nh(), 2);
    DiffTest dt(soc);
    dt.loadProgram(wl::sumProgram(500));
    dt.run(2'000'000);
    EXPECT_TRUE(dt.scoreboard().ok());
    EXPECT_GT(dt.scoreboard().transactionsChecked(), 0u);
}

TEST(DiffTest, RulesCanBeDisabled)
{
    // With the skip rule off, the first MMIO access must fail the run.
    xs::Soc soc(xs::CoreConfig::nh());
    RuleConfig rules;
    rules.skipMmio = false;
    DiffTest dt(soc, rules);
    dt.loadProgram(wl::sumProgram(10));
    dt.run(1'000'000);
    ASSERT_FALSE(dt.ok());
    EXPECT_NE(dt.failures().front().find("mmio"), std::string::npos);
}

TEST(DiffTest, CsrChecksFireOnTraps)
{
    // A program that takes an ecall trap exercises the CSR rule table.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    // mtvec = handler
    wl::Label handler = a.newLabel();
    a.li(wl::t0, 0x80000100);
    a.csr(isa::Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    a.itype(isa::Op::Ecall, 0, 0, 0);
    a.exit(1); // should be skipped by the trap
    while (a.here() < 0x80000100)
        a.nop();
    a.bind(handler);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(prog);
    dt.run(1'000'000);
    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_GT(dt.stats().csrChecks, 1u);
    EXPECT_EQ(soc.system().simctrl.exitCode(), 0u);
}

} // namespace
