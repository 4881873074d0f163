/**
 * Self-modifying code with fence.i: every engine caches decoded
 * instructions differently (decode cache, block cache, uop cache), and
 * fence.i is the only architectural flush point. A program patches one
 * instruction in place and must observe the new behaviour after the
 * fence on every engine.
 */

#include <gtest/gtest.h>

#include "iss/interp.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::isa;
using namespace minjie::iss;
namespace wl = minjie::workload;

using wl::smcProgram;

template <typename Engine, typename... Args>
uint64_t
runSmc(Args &&...extra)
{
    auto prog = smcProgram();
    System sys(32);
    prog.loadInto(sys.dram);
    Engine engine(sys.bus, std::forward<Args>(extra)..., 0, prog.entry);
    engine.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = engine.run(100'000);
    EXPECT_TRUE(r.halted);
    return sys.simctrl.exitCode();
}

TEST(SelfModifyingCode, PatchSiteAddressIsCorrect)
{
    // The test hardcodes the patch-site offset; pin it.
    auto prog = smcProgram();
    // li a0 (1 inst) + li s2 (1 inst) -> patch site at +8.
    uint32_t word = prog.segments[0].bytes[8] |
                    (prog.segments[0].bytes[9] << 8) |
                    (prog.segments[0].bytes[10] << 16) |
                    (prog.segments[0].bytes[11] << 24);
    auto di = isa::decode32(word);
    EXPECT_EQ(di.op, Op::Addi);
    EXPECT_EQ(di.imm, 1);
    EXPECT_EQ(di.rd, wl::a0);
}

TEST(SelfModifyingCode, SpikeEngine)
{
    EXPECT_EQ(runSmc<SpikeInterp>(), 8u);
}

TEST(SelfModifyingCode, DromajoEngine)
{
    EXPECT_EQ(runSmc<DromajoInterp>(), 8u);
}

TEST(SelfModifyingCode, TciEngine)
{
    EXPECT_EQ(runSmc<TciInterp>(), 8u);
}

TEST(SelfModifyingCode, NemuFastPath)
{
    auto prog = smcProgram();
    System sys(32);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.run(100'000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(sys.simctrl.exitCode(), 8u);
    // fence.i must have flushed the uop cache at least once.
    EXPECT_GE(nemu.stats().flushes, 1u);
}

TEST(SelfModifyingCode, NemuStepPath)
{
    auto prog = smcProgram();
    System sys(32);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = nemu.Interp::run(100'000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(sys.simctrl.exitCode(), 8u);
}

} // namespace
