/**
 * uop-cache behaviour tests: trace organization, capacity flushes,
 * block chaining, and mid-block entry (jump targets land inside an
 * already-translated block).
 */

#include <gtest/gtest.h>

#include "nemu/nemu.h"
#include "nemu/pc_table.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::iss;
using minjie::nemu::Nemu;
using minjie::nemu::PcTable;
namespace wl = minjie::workload;

TEST(UopCache, CapacityFlushAndRefill)
{
    // A program whose code footprint exceeds a tiny uop cache: N
    // distinct straight-line chunks chained by jumps, looped twice.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::s2, 3); // outer passes
    wl::Label top = a.boundLabel();
    for (int chunk = 0; chunk < 40; ++chunk)
        for (int i = 0; i < 16; ++i)
            a.itype(isa::Op::Addi, wl::a0, wl::a0, 1);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.branch(isa::Op::Bne, wl::s2, wl::zero, top);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    System sys(32);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry, /*uopCacheCap=*/256);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(100'000);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(sys.simctrl.exitCode(), 0u);
    // 640+ instructions of code with a 256-entry cache: flushes and
    // retranslations are mandatory, and results stay correct.
    EXPECT_GE(nemu.stats().flushes, 3u);
    EXPECT_GT(nemu.stats().translations, 640u);
    EXPECT_EQ(nemu.state().x[wl::a0], 3u * 40 * 16);
}

TEST(UopCache, MidBlockEntry)
{
    // A backward branch targets the middle of a previously-translated
    // block: the per-instruction pc map must resolve it.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::a0, 0);
    a.li(wl::s2, 10);
    a.itype(isa::Op::Addi, wl::a0, wl::a0, 100); // block head (run once)
    wl::Label mid = a.boundLabel();              // mid-block target
    a.itype(isa::Op::Addi, wl::a0, wl::a0, 1);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.branch(isa::Op::Bne, wl::s2, wl::zero, mid);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    System sys(32);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(10'000);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(nemu.state().x[wl::a0], 110u);
}

TEST(UopCache, ChainingResolvesOnce)
{
    // A steady loop: after warmup, branch targets are chained and the
    // resolve counter stops growing.
    auto prog = wl::sumProgram(5000);
    System sys(32);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    nemu.run(1'000);
    uint64_t early = nemu.stats().chainResolves;
    nemu.run(1'000'000);
    uint64_t late = nemu.stats().chainResolves;
    // Thousands of loop iterations later, only a handful of new edges.
    EXPECT_LT(late - early, 20u);
}

TEST(UopCache, TraceOrganizationGroupsSequentially)
{
    // Within a block, successive instructions occupy successive uop
    // slots (the "+1" advance): observable indirectly via translation
    // count == static code size on a straight-line program.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    for (int i = 0; i < 50; ++i)
        a.itype(isa::Op::Addi, wl::a0, wl::a0, 1);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    System sys(32);
    prog.loadInto(sys.dram);
    Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(10'000);
    ASSERT_TRUE(r.halted);
    // Straight-line code: every instruction translated exactly once.
    EXPECT_LE(nemu.stats().translations, 70u);
    EXPECT_EQ(nemu.state().x[wl::a0], 50u);
}

TEST(PcTable, GrowsFlushesAndRefills)
{
    PcTable t;
    ASSERT_EQ(t.capacity(), PcTable::INITIAL_SLOTS);
    // Instruction-spaced pcs in two distant regions, past the first
    // capacity many times over.
    std::vector<Addr> pcs;
    for (Addr i = 0; i < 600; ++i)
        pcs.push_back(DRAM_BASE + 2 * i);
    for (Addr i = 0; i < 600; ++i)
        pcs.push_back(DRAM_BASE + 0x10'0000 + 4 * i);
    for (size_t i = 0; i < pcs.size(); ++i)
        EXPECT_TRUE(t.emplace(pcs[i], static_cast<int32_t>(i)).second);
    EXPECT_EQ(t.size(), pcs.size());
    const size_t grown = t.capacity();
    EXPECT_GE(grown, 2 * pcs.size()); // never past half load
    for (size_t i = 0; i < pcs.size(); ++i) {
        const int32_t *v = t.find(pcs[i]);
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, static_cast<int32_t>(i));
        // A present pc keeps its value.
        auto [kept, fresh] = t.emplace(pcs[i], -1);
        EXPECT_FALSE(fresh);
        EXPECT_EQ(kept, static_cast<int32_t>(i));
    }
    EXPECT_EQ(t.find(DRAM_BASE + 1), nullptr);

    // A flush forgets every pc and keeps the capacity; each old pc
    // then misses and refills with its new value.
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), grown);
    for (size_t i = 0; i < pcs.size(); ++i)
        EXPECT_EQ(t.find(pcs[i]), nullptr) << i;
    for (size_t i = 0; i < pcs.size(); i += 2)
        EXPECT_TRUE(t.emplace(pcs[i], static_cast<int32_t>(7 * i)).second);
    for (size_t i = 0; i < pcs.size(); ++i) {
        const int32_t *v = t.find(pcs[i]);
        if (i % 2) {
            EXPECT_EQ(v, nullptr) << i;
        } else {
            ASSERT_NE(v, nullptr) << i;
            EXPECT_EQ(*v, static_cast<int32_t>(7 * i));
        }
    }
    EXPECT_EQ(t.capacity(), grown);
}

TEST(UopCache, FlushedCodeRetranslatesEveryPc)
{
    // Two passes over 900 straight-line instructions, each ending in
    // fence.i: the pc table grows well past its first capacity, and
    // after the flush the second pass finds none of the first pass's
    // uops, so every instruction is translated twice (plus the li
    // before the loop and the exit sequence after it, once each).
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::s2, 2);
    wl::Label top = a.boundLabel();
    for (int i = 0; i < 900; ++i)
        a.itype(isa::Op::Addi, wl::a0, wl::a0, 1);
    a.itype(isa::Op::FenceI, 0, 0, 0);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.branch(isa::Op::Bne, wl::s2, wl::zero, top);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    for (bool step : {false, true}) {
        System sys(32);
        prog.loadInto(sys.dram);
        Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
        nemu.setHaltFn([&] { return sys.simctrl.exited(); });
        if (step) {
            while (!sys.simctrl.exited())
                nemu.step();
        } else {
            ASSERT_TRUE(nemu.run(100'000).halted);
        }
        EXPECT_EQ(nemu.state().x[wl::a0], 2u * 900);
        EXPECT_EQ(nemu.stats().flushes, 2u) << step;
        EXPECT_EQ(nemu.stats().translations, 1 + 2 * (900 + 1 + 2) + 4)
            << step;
    }
}

} // namespace
