#include <gtest/gtest.h>

#include <algorithm>

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
    EXPECT_TRUE(dt.run(2'000'000).completed);
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

TEST(DiffTest, RunsAfterItsProgramIsGone)
{
    // The DUT maps the image in place, and loadRefMemory() maps each
    // page the DUT maps from those same bytes. Both memories keep the
    // image alive, so the Program may be destroyed before the run:
    // 458.sjeng's segments are small, 429.mcf's ring and int array are
    // mappings of their own (ZeroedArray, huge extents).
    for (const auto &spec : {wl::specIntSuite()[5], wl::specIntSuite()[2]}) {
        xs::Soc soc(xs::CoreConfig::nh());
        DiffTest dt(soc);
        {
            const wl::Program prog = wl::buildProxy(spec, 20);
            prog.loadInto(soc.system().dram);
            soc.setEntry(prog.entry);
            for (const auto &seg : prog.segments)
                dt.loadRefMemory(seg.base, seg.bytes.data(),
                                 seg.bytes.size());
            dt.resetRefs(prog.entry);
        }
        const uint64_t mapped = soc.system().dram.mappedPages();
        EXPECT_GT(mapped, 0u) << spec.name;
        EXPECT_EQ(dt.refDram(0).mappedPages(), mapped)
            << spec.name << ": the REF copied";
        dt.run(10'000'000);
        EXPECT_TRUE(dt.ok()) << spec.name << ": " << dt.failures().front();
        EXPECT_GT(dt.stats().commitsChecked, 2000u) << spec.name;
        EXPECT_TRUE(soc.system().simctrl.exited()) << spec.name;
    }
}

TEST(DiffTest, LoadRefMemoryCopiesBytesTheDutDoesNotMap)
{
    // The DUT maps an image; the caller passes equal bytes from its own
    // buffer, which the DUT does not map, so the REF copies them and
    // the buffer may be reused at once.
    constexpr Addr BASE = 0x80100000;
    std::vector<uint8_t> image(3 * mem::PhysMem::PAGE_SIZE);
    for (size_t i = 0; i < image.size(); ++i)
        image[i] = static_cast<uint8_t>(i * 13 + 5);
    std::vector<uint8_t> buf = image;
    wl::Program prog;
    prog.segments.push_back({BASE, std::move(image)});

    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    prog.loadInto(soc.system().dram);
    dt.loadRefMemory(BASE, buf.data(), buf.size());
    const std::vector<uint8_t> want = buf;
    std::fill(buf.begin(), buf.end(), 0xee);
    EXPECT_EQ(dt.refDram(0).mappedPages(), 0u);
    mem::PhysMem &ref = dt.refDram(0);
    for (size_t i = 0; i < want.size(); ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(ref.read(BASE + i, 1, v));
        ASSERT_EQ(v, want[i]) << i;
    }
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
    xs::Soc::RunResult r = dt.run(10'000'000);
    ASSERT_FALSE(dt.ok());
    // The co-simulation stops early, well before program completion.
    EXPECT_LT(r.cycles, 10'000'000u);
    EXPECT_FALSE(r.completed);
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
