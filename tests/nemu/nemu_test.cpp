#include <gtest/gtest.h>

#include <cstring>

#include "common/clock.h"
#include "nemu/nemu.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::iss;
using minjie::nemu::Nemu;
namespace wl = minjie::workload;

TEST(Nemu, SumProgramFastPath)
{
    System sys(32);
    auto prog = wl::sumProgram(1000);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(1'000'000);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(sys.simctrl.exitCode(), 0u);
    EXPECT_GT(r.executed, 3000u);
    EXPECT_LT(r.executed, 3200u);
    // The loop should be served from the uop cache, not retranslated.
    EXPECT_LT(nemu.stats().translations, 100u);
}

TEST(Nemu, InstretMatchesExecuted)
{
    System sys(32);
    auto prog = wl::sumProgram(123);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(100'000);
    EXPECT_EQ(nemu.state().instret, r.executed);
    EXPECT_EQ(nemu.state().csr.minstret, r.executed);
}

TEST(Nemu, MatchesSpikeOnRandomPrograms)
{
    for (int seed = 0; seed < 20; ++seed) {
        Rng rng(7000 + seed);
        auto prog = wl::randomProgram(rng, 300, /*withFp=*/true);

        System sysA(32), sysB(32);
        prog.loadInto(sysA.dram);
        prog.loadInto(sysB.dram);

        Nemu nemu(sysA.bus, sysA.dram, 0, prog.entry);
        nemu.setHaltFn([&] { return sysA.simctrl.exited(); });
        SpikeInterp spike(sysB.bus, 0, prog.entry);
        spike.setHaltFn([&] { return sysB.simctrl.exited(); });

        auto ra = nemu.run(2'000'000);
        auto rb = spike.run(2'000'000);
        ASSERT_TRUE(ra.halted) << "seed " << seed;
        ASSERT_TRUE(rb.halted) << "seed " << seed;

        const auto &a = nemu.state();
        const auto &b = spike.state();
        for (int i = 0; i < 32; ++i) {
            ASSERT_EQ(a.x[i], b.x[i]) << "x" << i << " seed " << seed;
            ASSERT_EQ(a.f[i], b.f[i]) << "f" << i << " seed " << seed;
        }
        ASSERT_EQ(a.csr.fflags, b.csr.fflags) << "seed " << seed;
        for (unsigned off = 0; off < 4096; off += 8) {
            uint64_t va, vb;
            sysA.bus.read(0x80100000 + off, 8, va);
            sysB.bus.read(0x80100000 + off, 8, vb);
            ASSERT_EQ(va, vb) << "mem off " << off << " seed " << seed;
        }
    }
}

TEST(Nemu, MatchesSpikeOnProxyBenchmark)
{
    auto prog = wl::buildProxy(wl::specIntSuite()[2], 50); // mcf proxy
    System sysA(128), sysB(128);
    prog.loadInto(sysA.dram);
    prog.loadInto(sysB.dram);

    Nemu nemu(sysA.bus, sysA.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sysA.simctrl.exited(); });
    SpikeInterp spike(sysB.bus, 0, prog.entry);
    spike.setHaltFn([&] { return sysB.simctrl.exited(); });

    auto ra = nemu.run(50'000'000);
    auto rb = spike.run(50'000'000);
    ASSERT_TRUE(ra.halted);
    ASSERT_TRUE(rb.halted);
    EXPECT_EQ(ra.executed, rb.executed);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(nemu.state().x[i], spike.state().x[i]) << "x" << i;
}

TEST(Nemu, StepPathMatchesFastPath)
{
    auto prog = wl::sumProgram(500);
    System sysA(32), sysB(32);
    prog.loadInto(sysA.dram);
    prog.loadInto(sysB.dram);

    Nemu fast(sysA.bus, sysA.dram, 0, prog.entry);
    fast.setHaltFn([&] { return sysA.simctrl.exited(); });
    Nemu stepper(sysB.bus, sysB.dram, 0, prog.entry);
    stepper.setHaltFn([&] { return sysB.simctrl.exited(); });

    auto ra = fast.run(100'000);
    auto rb = stepper.Interp::run(100'000); // step-by-step path
    ASSERT_TRUE(ra.halted);
    ASSERT_TRUE(rb.halted);
    EXPECT_EQ(ra.executed, rb.executed);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(fast.state().x[i], stepper.state().x[i]) << "x" << i;
}

TEST(Nemu, UopCacheFlushOnFenceI)
{
    System sys(32);
    auto prog = wl::sumProgram(10);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    nemu.run(100'000);
    uint64_t flushesBefore = nemu.stats().flushes;
    nemu.flushUopCache();
    EXPECT_EQ(nemu.stats().flushes, flushesBefore + 1);
}

TEST(Nemu, BlockHookSeesBasicBlocks)
{
    System sys(32);
    auto prog = wl::sumProgram(100);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });

    uint64_t blocks = 0, insts = 0;
    nemu.setBlockHook([&](Addr pc, uint32_t len) {
        ++blocks;
        insts += len;
        EXPECT_GT(len, 0u);
        EXPECT_GE(pc, DRAM_BASE);
    });
    auto r = nemu.Interp::run(100'000);
    ASSERT_TRUE(r.halted);
    // Every loop iteration ends in a branch: ~100 blocks.
    EXPECT_GT(blocks, 100u);
    // All counted instructions belong to some block (the final spin
    // block may be in flight when the run stops).
    EXPECT_LE(insts, r.executed);
    EXPECT_GT(insts, r.executed - 10);
}

TEST(Nemu, HostTlbOnDemandPagedPage)
{
    // A page mapped from a read-only source (as a pack restore maps it)
    // is copied on first touch, so both host-TLB ways must point at the
    // private copy: load, store, load again, then a store and a load
    // that hit the TLB.
    wl::Layout layout;
    std::vector<uint8_t> src(4096);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<uint8_t>(i * 3 + 1);
    const std::vector<uint8_t> orig = src;
    uint64_t before;
    std::memcpy(&before, src.data() + 64, 8);

    wl::Asm a(layout.codeBase);
    a.li(wl::s0, layout.dataBase);
    a.li(wl::t2, 0x0123456789abcdefULL);
    a.load(isa::Op::Ld, wl::t1, 64, wl::s0);
    a.store(isa::Op::Sd, wl::t2, 64, wl::s0);
    a.load(isa::Op::Ld, wl::t3, 64, wl::s0);
    a.itype(isa::Op::Addi, wl::t2, wl::t2, 1);
    a.store(isa::Op::Sd, wl::t2, 64, wl::s0);
    a.load(isa::Op::Ld, wl::t4, 64, wl::s0);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    System sys(32);
    prog.loadInto(sys.dram);
    sys.dram.mapPage(layout.dataBase, src.data());
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    ASSERT_TRUE(nemu.run(1000).halted);

    const auto &st = nemu.state();
    EXPECT_EQ(st.x[wl::t1], before);
    EXPECT_EQ(st.x[wl::t3], 0x0123456789abcdefULL);
    EXPECT_EQ(st.x[wl::t4], 0x0123456789abcdf0ULL);
    EXPECT_EQ(nemu.stats().hostTlbFills, 2u) << "one fill per way";
    EXPECT_EQ(src, orig) << "a store reached the mapped source";
    uint64_t v = 0;
    ASSERT_TRUE(sys.dram.read(layout.dataBase + 64, 8, v));
    EXPECT_EQ(v, 0x0123456789abcdf0ULL);
}

TEST(Nemu, FastPathIsFasterThanSpike)
{
    auto prog = wl::coremarkProxy(300);
    System sysA(64), sysB(64);
    prog.loadInto(sysA.dram);
    prog.loadInto(sysB.dram);

    Nemu nemu(sysA.bus, sysA.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sysA.simctrl.exited(); });
    SpikeInterp spike(sysB.bus, 0, prog.entry);
    spike.setHaltFn([&] { return sysB.simctrl.exited(); });

    Stopwatch sw;
    auto ra = nemu.run(100'000'000);
    double nemuTime = sw.elapsedSec();
    sw.reset();
    auto rb = spike.run(100'000'000);
    double spikeTime = sw.elapsedSec();
    ASSERT_TRUE(ra.halted);
    ASSERT_TRUE(rb.halted);
    // The paper reports ~5x; require at least 1.5x to keep the test
    // robust on slow CI machines.
    EXPECT_LT(nemuTime * 1.5, spikeTime)
        << "nemu " << nemuTime << "s vs spike " << spikeTime << "s";
}

} // namespace
