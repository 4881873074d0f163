#include <gtest/gtest.h>

#include "iss/interp.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::workload;

/** Run an assembled fragment on the reference interpreter. */
iss::ArchState
runAsm(Asm &a, Addr entry, unsigned maxInsts = 10000)
{
    Program prog;
    prog.entry = entry;
    prog.segments.push_back(a.finish());

    iss::System sys(32);
    prog.loadInto(sys.dram);
    iss::SpikeInterp interp(sys.bus, 0, entry);
    interp.setHaltFn([&] { return sys.simctrl.exited(); });
    interp.run(maxInsts);
    return interp.state();
}

TEST(Asm, LiSmallImmediates)
{
    Layout layout;
    Asm a(layout.codeBase);
    a.li(a0, 42);
    a.li(a1, static_cast<uint64_t>(-42));
    a.li(a2, 2047);
    a.li(a3, static_cast<uint64_t>(-2048));
    a.exit(0);
    auto st = runAsm(a, layout.codeBase);
    EXPECT_EQ(st.x[a0], 42u);
    EXPECT_EQ(st.x[a1], static_cast<uint64_t>(-42));
    EXPECT_EQ(st.x[a2], 2047u);
    EXPECT_EQ(st.x[a3], static_cast<uint64_t>(-2048));
}

TEST(Asm, Li32BitRange)
{
    Layout layout;
    Asm a(layout.codeBase);
    a.li(a0, 0x12345678);
    a.li(a1, 0x7fffffff);
    a.li(a2, static_cast<uint64_t>(static_cast<int64_t>(-0x12345678)));
    a.li(a3, 0x800); // straddles the addi boundary
    a.exit(0);
    auto st = runAsm(a, layout.codeBase);
    EXPECT_EQ(st.x[a0], 0x12345678u);
    EXPECT_EQ(st.x[a1], 0x7fffffffu);
    EXPECT_EQ(st.x[a2],
              static_cast<uint64_t>(static_cast<int64_t>(-0x12345678)));
    EXPECT_EQ(st.x[a3], 0x800u);
}

TEST(Asm, Li64BitValues)
{
    Layout layout;
    Asm a(layout.codeBase);
    a.li(a0, 0xdeadbeefcafebabeULL);
    a.li(a1, 0x8000000000000000ULL);
    a.li(a2, 0xffffffffffffffffULL);
    a.li(a3, 0x0000000100000000ULL);
    a.exit(0);
    auto st = runAsm(a, layout.codeBase);
    EXPECT_EQ(st.x[a0], 0xdeadbeefcafebabeULL);
    EXPECT_EQ(st.x[a1], 0x8000000000000000ULL);
    EXPECT_EQ(st.x[a2], 0xffffffffffffffffULL);
    EXPECT_EQ(st.x[a3], 0x0000000100000000ULL);
}

TEST(Asm, LiRandomRoundtrip)
{
    Rng rng(0x11aa);
    for (int trial = 0; trial < 30; ++trial) {
        uint64_t v = rng.next();
        Layout layout;
        Asm a(layout.codeBase);
        a.li(a0, v);
        a.exit(0);
        auto st = runAsm(a, layout.codeBase);
        ASSERT_EQ(st.x[a0], v) << std::hex << v;
    }
}

TEST(Asm, SizeHelpersMatchEmittedBytes)
{
    std::vector<uint64_t> values = {
        0, 1, 2047, static_cast<uint64_t>(-2048), 0x800, 0x7ffff7ff,
        0x7ffff800, 0x7fffffff, 0x80000000, 0x40000000,
        0x8000000000000000ULL, ~0ULL};
    Rng rng(0x51ce);
    for (int i = 0; i < 300; ++i)
        values.push_back(rng.next() >> rng.below(64));
    for (uint64_t v : values) {
        Asm a(0);
        a.li(a0, v);
        EXPECT_EQ(a.size(), Asm::liBytes(v)) << std::hex << v;
    }
    for (uint64_t code : {0ULL, 1ULL, 255ULL, 1ULL << 40}) {
        Asm a(0);
        a.exit(code);
        EXPECT_EQ(a.size(), Asm::exitBytes(code)) << code;
    }
}

TEST(Asm, ResolvedPiecesMatchSeparateAssemblers)
{
    // Two pieces with their own labels, emitted into one assembler with
    // resolveLabels() between them, are byte for byte what two
    // assemblers emit for them apart.
    auto piece = [](Asm &a, int skip) {
        Label l = a.newLabel();
        a.branch(isa::Op::Beq, a0, a1, l);
        for (int i = 0; i < skip; ++i)
            a.itype(isa::Op::Addi, a2, a2, i);
        a.bind(l);
    };
    Asm one(0);
    piece(one, 3);
    one.resolveLabels();
    piece(one, 1);
    Asm first(0), second(0);
    piece(first, 3);
    piece(second, 1);
    std::vector<uint8_t> apart = first.finishBytes();
    const std::vector<uint8_t> tail = second.finishBytes();
    apart.insert(apart.end(), tail.begin(), tail.end());
    EXPECT_EQ(one.finishBytes(), apart);
}

TEST(Asm, BackwardAndForwardBranches)
{
    Layout layout;
    Asm a(layout.codeBase);
    a.li(a0, 0);
    a.li(a1, 10);
    Label loop = a.boundLabel();      // backward target
    a.rtype(isa::Op::Add, a0, a0, a1);
    a.itype(isa::Op::Addi, a1, a1, -1);
    a.branch(isa::Op::Bne, a1, zero, loop);
    Label skip = a.newLabel();        // forward target
    a.branch(isa::Op::Beq, zero, zero, skip);
    a.li(a0, 999); // must be skipped
    a.bind(skip);
    a.exit(0);
    auto st = runAsm(a, layout.codeBase);
    EXPECT_EQ(st.x[a0], 55u);
}

TEST(Asm, CallAndRet)
{
    Layout layout;
    Asm a(layout.codeBase);
    Label fn = a.newLabel();
    a.li(a0, 5);
    a.call(fn);
    a.call(fn);
    a.exit(0);
    a.bind(fn);
    a.itype(isa::Op::Addi, a0, a0, 7);
    a.ret();
    auto st = runAsm(a, layout.codeBase);
    EXPECT_EQ(st.x[a0], 19u);
}

TEST(Asm, ExitCodePropagates)
{
    Layout layout;
    Asm a(layout.codeBase);
    a.exit(42);
    Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    iss::System sys(32);
    prog.loadInto(sys.dram);
    iss::SpikeInterp interp(sys.bus, 0, prog.entry);
    interp.setHaltFn([&] { return sys.simctrl.exited(); });
    interp.run(1000);
    EXPECT_TRUE(sys.simctrl.exited());
    EXPECT_EQ(sys.simctrl.exitCode(), 42u);
}

TEST(Asm, PutcharWritesSimctrl)
{
    Layout layout;
    Asm a(layout.codeBase);
    a.li(a0, 'h');
    a.putchar(a0);
    a.li(a0, 'i');
    a.putchar(a0);
    a.exit(0);
    Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    iss::System sys(32);
    prog.loadInto(sys.dram);
    iss::SpikeInterp interp(sys.bus, 0, prog.entry);
    interp.setHaltFn([&] { return sys.simctrl.exited(); });
    interp.run(1000);
    EXPECT_EQ(sys.simctrl.output(), "hi");
}

} // namespace
