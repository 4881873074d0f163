#include <gtest/gtest.h>

#include <cstring>

#include "checkpoint/checkpoint.h"
#include "checkpoint/generator.h"
#include "difftest/difftest.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "sample/store.h"
#include "workload/asm.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
using namespace minjie::checkpoint;
namespace wl = minjie::workload;

sample::PackReader
openPack(const GenResult &gen)
{
    sample::PackReader pack;
    EXPECT_TRUE(pack.openMemory(sample::packFromGen(gen)));
    return pack;
}

TEST(Checkpoint, SerializeRestoreRoundtrip)
{
    iss::System sys(32);
    auto prog = wl::coremarkProxy(10);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    nemu.run(5000);

    Checkpoint cp = serialize(nemu.state(), sys.dram, 5000);
    ASSERT_TRUE(cp.valid());

    iss::System sys2(32);
    iss::ArchState restored;
    ASSERT_TRUE(restore(cp, restored, sys2.dram));

    EXPECT_EQ(restored.pc, nemu.state().pc);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(restored.x[i], nemu.state().x[i]) << "x" << i;
        EXPECT_EQ(restored.f[i], nemu.state().f[i]) << "f" << i;
    }
    EXPECT_EQ(restored.csr.mstatus, nemu.state().csr.mstatus);
    EXPECT_EQ(restored.csr.satp, nemu.state().csr.satp);

    // Memory equality over the program's data region.
    for (Addr a = 0x80100000; a < 0x80101000; a += 8) {
        uint64_t v1, v2;
        sys.dram.read(a, 8, v1);
        sys2.dram.read(a, 8, v2);
        EXPECT_EQ(v1, v2) << std::hex << a;
    }
}

TEST(Checkpoint, RestoredRunContinuesIdentically)
{
    // Resuming from a checkpoint must reproduce the original execution:
    // the defining property of the Figure 9 format.
    auto prog = wl::coremarkProxy(20);

    iss::System sysA(32);
    prog.loadInto(sysA.dram);
    nemu::Nemu a(sysA.bus, sysA.dram, 0, prog.entry);
    a.setHaltFn([&] { return sysA.simctrl.exited(); });
    a.run(10'000);
    Checkpoint cp = serialize(a.state(), sysA.dram, 10'000);
    a.run(20'000); // original continues

    iss::System sysB(32);
    nemu::Nemu b(sysB.bus, sysB.dram, 0, prog.entry);
    b.setHaltFn([&] { return sysB.simctrl.exited(); });
    ASSERT_TRUE(restore(cp, b.state(), sysB.dram));
    b.flushUopCache();
    b.run(20'000); // restored copy continues the same distance

    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.state().x[i], b.state().x[i]) << "x" << i;
    EXPECT_EQ(a.state().pc, b.state().pc);
}

TEST(Checkpoint, ImageBytesIndependentOfPageTouchOrder)
{
    // Regression: serialize() visited DRAM pages in unordered_map
    // iteration order, so two runs that dirtied the same pages in
    // different orders produced byte-different images for identical
    // architectural state. forEachPage() now visits in ascending
    // address order.
    iss::ArchState st{};
    mem::PhysMem a(0x80000000, 1 << 24);
    mem::PhysMem b(0x80000000, 1 << 24);

    std::vector<Addr> pages;
    for (Addr i = 0; i < 64; ++i)
        pages.push_back(0x80000000 + i * 0x1000);
    for (Addr p : pages)
        a.write(p, 8, p);
    for (auto it = pages.rbegin(); it != pages.rend(); ++it)
        b.write(*it, 8, *it);

    Checkpoint ca = serialize(st, a, 0);
    Checkpoint cb = serialize(st, b, 0);
    ASSERT_TRUE(ca.valid());
    EXPECT_EQ(ca.bytes, cb.bytes)
        << "checkpoint image depends on page touch order";
}

TEST(Checkpoint, ZeroPagesElidedFromImage)
{
    // Size regression for the zero-page elision: an image must pay
    // only for pages holding data, and elided pages must read back as
    // zeros after restore.
    iss::ArchState st{};
    mem::PhysMem mem(0x80000000, 1 << 24);

    constexpr unsigned TOUCHED = 32, NONZERO = 5;
    for (Addr i = 0; i < TOUCHED; ++i) {
        Addr page = 0x80000000 + i * 0x1000;
        // Allocate every page; leave most of them all-zero.
        mem.write(page, 8, i < NONZERO ? 0xdeadbeef + i : 0);
    }

    Checkpoint cp = serialize(st, mem, 0);
    size_t expect = archHeaderBytes() + 8 +
                    NONZERO * (8 + mem::PhysMem::PAGE_SIZE);
    EXPECT_EQ(cp.bytes.size(), expect)
        << "zero pages were serialized (or data pages dropped)";

    iss::ArchState st2;
    mem::PhysMem mem2(0x80000000, 1 << 24);
    ASSERT_TRUE(restore(cp, st2, mem2));
    for (Addr i = 0; i < TOUCHED; ++i) {
        uint64_t v = ~0ULL;
        mem2.read(0x80000000 + i * 0x1000, 8, v);
        EXPECT_EQ(v, i < NONZERO ? 0xdeadbeef + i : 0) << "page " << i;
    }
}

TEST(Checkpoint, ShortProgramFallsBackToWholeRunCheckpoint)
{
    // A straight-line program retires no control transfer before
    // SimCtrl halts it, so BBV collection sees zero complete
    // intervals. generateCheckpoints must degrade to a single
    // whole-run checkpoint of weight 1.0, not an empty result.
    wl::Asm a(0x80000000);
    a.li(wl::a0, 0);
    for (int i = 0; i < 64; ++i)
        a.itype(minjie::isa::Op::Addi, wl::a0, wl::a0, 1);
    a.exit(0);
    wl::Program prog;
    prog.name = "straightline";
    prog.entry = a.base();
    prog.segments.push_back(a.finish());

    auto gen = generateCheckpoints(prog, 1'000'000, 4, 10'000'000);
    ASSERT_EQ(gen.checkpoints.size(), 1u);
    EXPECT_EQ(gen.checkpoints[0], 0u);
    auto pack = openPack(gen);
    ASSERT_EQ(pack.count(), 1u);
    EXPECT_EQ(pack.weightNum(0), 1u);
    EXPECT_EQ(pack.weightDen(), 1u);

    // The whole-run checkpoint replays the entire execution.
    iss::System sys(32);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, 0);
    ASSERT_TRUE(pack.restoreInto(0, nemu.state(), sys.dram));
    nemu.flushUopCache();
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    nemu.run(10'000);
    EXPECT_TRUE(sys.simctrl.exited());
    EXPECT_EQ(nemu.state().x[wl::a0], 64u);
}

TEST(Checkpoint, ResumeEquivalenceUnderDiffTest)
{
    // Figure 9's manual artifact check, promoted to a tier-1 test:
    // the same checkpoint restored into the ISS interpreter (the
    // DiffTest REF) and into the xs::Core oracle must produce
    // identical commit streams when both resume.
    auto prog = wl::coremarkProxy(100);
    auto gen = generateCheckpoints(prog, 25'000, 2, 10'000'000);
    ASSERT_GE(gen.checkpoints.size(), 1u);
    // Earliest checkpoint: leaves the most instructions to replay.
    auto pack = openPack(gen);
    size_t cp = 0;
    for (size_t i = 0; i < pack.count(); ++i)
        if (pack.instCount(i) < pack.instCount(cp))
            cp = i;

    xs::Soc soc(xs::CoreConfig::nh());
    ASSERT_TRUE(pack.restoreInto(cp, soc.core(0).oracleState(),
                                 soc.system().dram));

    difftest::DiffTest dt(soc);
    // Seed the REF with the same checkpoint: arch state directly,
    // memory page by page from a scratch restore.
    iss::ArchState refState;
    mem::PhysMem scratch(0x80000000, 256ull << 20);
    ASSERT_TRUE(pack.restoreInto(cp, refState, scratch));
    dt.ref(0).state() = refState;
    dt.ref(0).flushUopCache();
    scratch.forEachPage([&](Addr base, const uint8_t *data) {
        dt.loadRefMemory(base, data, mem::PhysMem::PAGE_SIZE);
    });

    constexpr InstCount K = 10'000;
    auto r = soc.runUntilInstrs(K, 10'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(dt.ok())
        << (dt.failures().empty() ? "" : dt.failures().front());
    EXPECT_GE(dt.stats().commitsChecked, K);
}

TEST(Checkpoint, RejectsGarbage)
{
    Checkpoint cp;
    cp.bytes.assign(64, 0xab);
    iss::ArchState st;
    mem::PhysMem mem(0x80000000, 1 << 20);
    EXPECT_FALSE(restore(cp, st, mem));
}

TEST(Checkpoint, RejectsCraftedImagesUntouched)
{
    // A valid two-page image, then crafted variants: each must be
    // rejected before the target state or memory changes.
    iss::ArchState src{};
    src.pc = 0x80001234;
    mem::PhysMem m(0x80000000, 1 << 20);
    m.write(0x80000000, 8, 1);
    m.write(0x80003000, 8, 2);
    const Checkpoint good = serialize(src, m, 0);
    const size_t countOff = archHeaderBytes();
    const size_t base0 = countOff + 8, base1 = base0 + 8 + 4096;

    auto patched = [&](size_t off, uint64_t x) {
        Checkpoint cp = good;
        std::memcpy(cp.bytes.data() + off, &x, 8);
        return cp;
    };
    Checkpoint truncated = good;
    truncated.bytes.pop_back(); // last page one byte short
    Checkpoint trailing = good;
    trailing.bytes.push_back(0); // length no longer exact
    Checkpoint badMagic = patched(0, 0);
    Checkpoint badCsrCount = patched(70 * 8, 3);
    const std::pair<const char *, Checkpoint> bad[] = {
        // (8 + 4096) * n wraps to exactly the two pages present.
        {"wrapping count", patched(countOff, 2 + (1ULL << 61))},
        {"huge count", patched(countOff, ~0ULL)},
        {"one page too many", patched(countOff, 3)},
        {"truncated last page", truncated},
        {"trailing bytes", trailing},
        {"unaligned base", patched(base1, 0x80003008)},
        {"base below DRAM", patched(base0, 0x1000)},
        {"base past DRAM", patched(base1, 0x80100000)},
        {"bad magic", badMagic},
        {"bad CSR count", badCsrCount},
    };

    iss::ArchState okState;
    mem::PhysMem okMem(0x80000000, 1 << 20);
    ASSERT_TRUE(restore(good, okState, okMem));
    EXPECT_EQ(okState.pc, src.pc);
    for (const auto &[what, cp] : bad) {
        iss::ArchState st{};
        st.pc = 0x42;
        st.x[5] = 7;
        mem::PhysMem target(0x80000000, 1 << 20);
        target.write(0x80050000, 8, 9);
        EXPECT_FALSE(restore(cp, st, target)) << what;
        EXPECT_EQ(st.pc, 0x42u) << what;
        EXPECT_EQ(st.x[5], 7u) << what;
        EXPECT_EQ(target.allocatedPages(), 1u) << what;
        uint64_t v = 0;
        target.read(0x80050000, 8, v);
        EXPECT_EQ(v, 9u) << what;
    }
}

TEST(Checkpoint, GeneratorProducesWeightedCheckpoints)
{
    auto prog = wl::coremarkProxy(200);
    auto gen = generateCheckpoints(prog, 20'000, 4, 10'000'000);

    ASSERT_GE(gen.checkpoints.size(), 1u);
    ASSERT_LE(gen.checkpoints.size(), 4u);
    auto pack = openPack(gen);
    ASSERT_EQ(pack.count(), gen.checkpoints.size());
    uint64_t wsum = 0;
    for (size_t i = 0; i < pack.count(); ++i) {
        EXPECT_GT(pack.weightNum(i), 0u);
        EXPECT_EQ(pack.weightNum(i), gen.simpoints.sizes[i]);
        EXPECT_EQ(pack.instCount(i), gen.checkpoints[i]);
        wsum += pack.weightNum(i);
    }
    EXPECT_EQ(wsum, pack.weightDen());
    EXPECT_EQ(pack.weightDen(), gen.simpoints.weightDen());
    EXPECT_GT(gen.totalInsts, 100'000u);
    // Both passes run on the threaded engine and report their speed.
    EXPECT_GT(gen.profileMips, 0.0);
    EXPECT_GT(gen.generateMips, 0.0);
}

TEST(Checkpoint, RestoresIntoCycleModel)
{
    // The end-to-end use: restore a checkpoint into XIANGSHAN and
    // simulate a measurement window.
    auto prog = wl::coremarkProxy(500);
    auto gen = generateCheckpoints(prog, 50'000, 2, 10'000'000);
    ASSERT_GE(gen.checkpoints.size(), 1u);
    auto pack = openPack(gen);

    xs::Soc soc(xs::CoreConfig::nh());
    ASSERT_TRUE(pack.restoreInto(0, soc.core(0).oracleState(),
                                 soc.system().dram));
    auto r = soc.runUntilInstrs(20'000, 5'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(soc.core(0).perf().instrs, 20'000u);
    EXPECT_GT(soc.core(0).perf().ipc(), 0.05);
}

/** Weighted CPI over the pack's checkpoints with the exact-integer
 *  reduction: weighted cycles over weighted instructions. */
double
estimateCpi(const sample::PackReader &pack, InstCount warm,
            InstCount measure)
{
    uint64_t wCycles = 0, wInstrs = 0;
    for (size_t i = 0; i < pack.count(); ++i) {
        xs::Soc soc(xs::CoreConfig::nh());
        EXPECT_TRUE(pack.restoreInto(i, soc.core(0).oracleState(),
                                     soc.system().dram));
        soc.runUntilInstrs(warm, 5'000'000);
        Cycle warmCycles = soc.core(0).perf().cycles;
        InstCount warmInstrs = soc.core(0).perf().instrs;
        soc.runUntilInstrs(warmInstrs + measure, 20'000'000);
        wCycles += pack.weightNum(i) * (soc.core(0).perf().cycles - warmCycles);
        wInstrs += pack.weightNum(i) * (soc.core(0).perf().instrs - warmInstrs);
    }
    return wInstrs ? static_cast<double>(wCycles) /
                         static_cast<double>(wInstrs)
                   : 0.0;
}

TEST(Checkpoint, WeightedCpiTracksFullRunAndWarmupHelps)
{
    // The paper reports a 5-10% deviation against real hardware and
    // names micro-architectural warming as the dominant error source
    // (Section III-D3). We verify both halves of that story: the
    // estimate is in the right range, and longer warmup moves it
    // toward the full-run measurement.
    auto prog = wl::coremarkProxy(400);

    xs::Soc full(xs::CoreConfig::nh());
    full.loadProgram(prog);
    auto r = full.run(50'000'000);
    ASSERT_TRUE(r.completed);
    double fullCpi = 1.0 / full.core(0).perf().ipc();

    auto gen = generateCheckpoints(prog, 30'000, 4, 10'000'000);
    auto pack = openPack(gen);
    double coldEstimate = estimateCpi(pack, 1'000, 10'000);
    double warmEstimate = estimateCpi(pack, 15'000, 10'000);

    // Sanity band: cold-state estimates overshoot (every miss is
    // compulsory in a short window) but stay within an order of
    // magnitude; the meaningful property is the warmup trend below.
    EXPECT_GT(coldEstimate, fullCpi * 0.4);
    EXPECT_LT(coldEstimate, fullCpi * 8.0);
    EXPECT_GT(warmEstimate, fullCpi * 0.4);
    EXPECT_LT(warmEstimate, fullCpi * 4.0);
    // Warming reduces the error (the paper's stated future work).
    double coldErr = std::abs(coldEstimate - fullCpi);
    double warmErr = std::abs(warmEstimate - fullCpi);
    EXPECT_LE(warmErr, coldErr)
        << "cold " << coldEstimate << " warm " << warmEstimate
        << " full " << fullCpi;
}

} // namespace
