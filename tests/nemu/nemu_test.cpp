#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/clock.h"
#include "isa/csr.h"
#include "nemu/nemu.h"
#include "iss/system.h"
#include "workload/asm.h"
#include "workload/programs.h"
#include "workload/shrinkable.h"

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

/** Encoding of the one instruction @p emit assembles. */
template <typename Emit>
uint32_t
encodeOne(Emit emit)
{
    wl::Asm a(DRAM_BASE);
    emit(a);
    auto seg = a.finish();
    uint32_t w = 0;
    std::memcpy(&w, seg.bytes.data(), sizeof(w));
    return w;
}

/**
 * Self-modifying code: each trip rewrites the first instruction of a
 * subroutine (addi a0 by 1 or by 7), runs fence.i and calls it; the
 * subroutine then traps twice (ecall, an illegal word), each resumed
 * past by the handler.
 */
wl::Program
patchingProgram()
{
    using isa::Op;
    const Addr slot = DRAM_BASE + 0x400;
    const uint32_t add1 = encodeOne(
        [](wl::Asm &e) { e.itype(Op::Addi, wl::a0, wl::a0, 1); });
    const uint32_t add7 = encodeOne(
        [](wl::Asm &e) { e.itype(Op::Addi, wl::a0, wl::a0, 7); });

    const wl::Layout layout;
    wl::Asm a(layout.codeBase);
    wl::Label start = a.newLabel(), loop = a.newLabel(),
              pick = a.newLabel();
    a.j(start);
    const Addr handler = a.here();
    a.csr(Op::Csrrs, wl::t1, isa::CSR_MEPC, wl::zero);
    a.itype(Op::Addi, wl::t1, wl::t1, 4);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MEPC, wl::t1);
    a.itype(Op::Mret, 0, 0, 0);

    a.bind(start);
    a.li(wl::t0, handler);
    a.csr(Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    a.li(wl::s1, 30);
    a.li(wl::t4, slot);
    a.bind(loop);
    a.li(wl::t2, add1);
    a.itype(Op::Andi, wl::t3, wl::s1, 1);
    a.branch(Op::Beq, wl::t3, wl::zero, pick);
    a.li(wl::t2, add7);
    a.bind(pick);
    a.store(Op::Sw, wl::t2, 0, wl::t4);
    a.itype(Op::FenceI, 0, 0, 0);
    a.itype(Op::Jalr, wl::ra, wl::t4, 0);
    a.itype(Op::Addi, wl::s1, wl::s1, -1);
    a.branch(Op::Bne, wl::s1, wl::zero, loop);
    a.exit(0);
    while (a.here() < slot)
        a.nop();
    a.nop(); // rewritten before every call
    a.itype(Op::Ecall, 0, 0, 0);
    a.bytes({0, 0, 0, 0}); // illegal
    a.ret();

    wl::Program prog;
    prog.name = "patching";
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    return prog;
}

/** Architectural state one engine may not differ from another in. */
void
expectSameState(const ArchState &want, const ArchState &got,
                const std::string &what)
{
    ASSERT_EQ(want.pc, got.pc) << what;
    ASSERT_EQ(want.priv, got.priv) << what;
    ASSERT_EQ(want.instret, got.instret) << what;
    ASSERT_EQ(want.csr.mstatus, got.csr.mstatus) << what;
    ASSERT_EQ(want.csr.mepc, got.csr.mepc) << what;
    ASSERT_EQ(want.csr.mcause, got.csr.mcause) << what;
    ASSERT_EQ(want.csr.satp, got.csr.satp) << what;
    for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(want.x[i], got.x[i]) << what << " x" << i;
        ASSERT_EQ(want.f[i], got.f[i]) << what << " f" << i;
    }
}

TEST(Nemu, StepMatchesRunOneAcrossFlushesAndTraps)
{
    // step() reuses the uop after the last one stepped without a pc
    // lookup. Check it instruction by instruction against run(1), and
    // against an engine alternating the two, over code patched under
    // fence.i, satp writes, sfence.vma, mret and traps.
    std::vector<wl::Program> progs = {patchingProgram(), wl::sv39Program(),
                                      wl::coremarkProxy(5)};
    progs.push_back(wl::buildProxy(wl::specIntSuite()[0], 50));
    progs.push_back(wl::buildProxy(wl::specFpSuite()[0], 50));
    for (uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(0x57e9 + seed);
        wl::RandomSpec spec;
        spec.nInsts = 300;
        spec.withFp = seed % 2 == 0;
        spec.withRvc = seed % 3 != 2;
        progs.push_back(wl::randomShrinkable(rng, spec).assemble());
        progs.back().name = "random#" + std::to_string(seed);
    }

    for (const auto &prog : progs) {
        System sysA(64), sysB(64), sysC(64);
        prog.loadInto(sysA.dram);
        prog.loadInto(sysB.dram);
        prog.loadInto(sysC.dram);
        Nemu stepper(sysA.bus, sysA.dram, 0, prog.entry);
        Nemu runner(sysB.bus, sysB.dram, 0, prog.entry);
        Nemu mixed(sysC.bus, sysC.dram, 0, prog.entry);
        InstCount n = 0;
        for (; n < 200'000 && !sysA.simctrl.exited(); ++n) {
            stepper.step();
            runner.run(1);
            if (n % 3 == 0)
                mixed.run(1);
            else
                mixed.step();
            std::string what = prog.name + " @" + std::to_string(n);
            expectSameState(stepper.state(), runner.state(), what);
            expectSameState(stepper.state(), mixed.state(),
                            what + " (mixed)");
            ASSERT_EQ(sysB.simctrl.exited(), sysA.simctrl.exited());
        }
        EXPECT_TRUE(sysA.simctrl.exited()) << prog.name;
        EXPECT_EQ(sysA.simctrl.exitCode(), 0u) << prog.name;
        if (prog.name == "patching") { // 15 trips of each patched addi
            EXPECT_EQ(stepper.state().x[wl::a0], 15u * 1 + 15u * 7);
        }
    }
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

    // The hook and the BBV profiler are one block tracker: a profile
    // taken alongside the hook (small intervals, so several close)
    // holds the hook's lengths summed per block-start pc.
    nemu.profileBbvs(50);
    uint64_t blocks = 0, insts = 0;
    std::map<Addr, uint64_t> perPc;
    nemu.setBlockHook([&](Addr pc, uint32_t len) {
        ++blocks;
        insts += len;
        perPc[pc] += len;
        EXPECT_GT(len, 0u);
        EXPECT_GE(pc, DRAM_BASE);
    });
    auto r = nemu.run(100'000);
    ASSERT_TRUE(r.halted);
    // Every loop iteration ends in a branch: ~100 blocks.
    EXPECT_GT(blocks, 100u);
    // All counted instructions belong to some block (the final spin
    // block may be in flight when the run stops).
    EXPECT_LE(insts, r.executed);
    EXPECT_GT(insts, r.executed - 10);

    auto bbvs = nemu.takeBbvs();
    EXPECT_GT(bbvs.size(), 2u);
    std::map<Addr, uint64_t> profiled;
    for (const auto &bbv : bbvs)
        for (const auto &[pc, n] : bbv)
            profiled[pc] += n;
    EXPECT_EQ(profiled, perPc);
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

TEST(Nemu, StoresAfterDirtyClearAreMarked)
{
    // Each store kind writes its own page on two loop trips. The first
    // trip fills the store-TLB pointers (sd/sw/sb/fsd); the DRAM dirty
    // clear between the trips bumps the epoch, so the second trip must
    // not write through a stale pointer without marking its page. AMO
    // and SC take the bus path, which marks on every write.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    const uint8_t bases[] = {wl::s0, wl::a1, wl::a2, wl::a3, wl::a4,
                             wl::a5};
    for (unsigned i = 0; i < std::size(bases); ++i)
        a.li(bases[i], layout.dataBase + i * 0x1000);
    a.li(wl::t2, 0x1234);
    a.li(wl::s1, 2);
    const Addr loopPc = a.here();
    wl::Label loop = a.boundLabel();
    a.store(isa::Op::Sd, wl::t2, 0, wl::s0);
    a.store(isa::Op::Sw, wl::t2, 0, wl::a1);
    a.store(isa::Op::Sb, wl::t2, 0, wl::a2);
    a.store(isa::Op::Fsd, 0, 0, wl::a3); // f0
    a.rtype(isa::Op::AmoAddD, wl::t3, wl::a4, wl::t2);
    a.rtype(isa::Op::LrD, wl::t4, wl::a5, 0);
    a.rtype(isa::Op::ScD, wl::s2, wl::a5, wl::t2);
    a.itype(isa::Op::Addi, wl::s1, wl::s1, -1);
    a.branch(isa::Op::Bne, wl::s1, wl::zero, loop);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    System sys(32);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    const InstCount prologue = (loopPc - layout.codeBase) / 4;
    ASSERT_EQ(nemu.run(prologue + 9).executed, prologue + 9);
    ASSERT_EQ(nemu.state().pc, loopPc) << "not at the second trip";
    EXPECT_GE(nemu.stats().hostTlbFills, 4u);

    sys.dram.clearDirty();
    ASSERT_TRUE(nemu.run(1000).halted);
    EXPECT_EQ(nemu.state().x[wl::s2], 0u) << "sc.d failed";
    std::vector<Addr> dirty;
    sys.dram.forEachDirtyPage(
        [&](Addr base, const uint8_t *) { dirty.push_back(base); });
    std::vector<Addr> want;
    for (unsigned i = 0; i < std::size(bases); ++i)
        want.push_back(layout.dataBase + i * 0x1000);
    EXPECT_EQ(dirty, want);
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
