/**
 * Fault-injection smoke tests: a flipped committed register write and a
 * dropped store must both be flagged by DiffTest within a bounded
 * instruction count, and the divergence trace window dumped alongside
 * the report must contain the injection site.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "difftest/difftest.h"
#include "obs/trace.h"
#include "workload/asm.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
using namespace minjie::difftest;
using namespace minjie::obs;
namespace wl = minjie::workload;

/** Every iteration stores the accumulator and reloads it, so a dropped
 *  store is architecturally observed by the very next load. */
wl::Program
storeReloadProgram(uint64_t n)
{
    wl::Layout layout;
    wl::Program prog;
    prog.name = "store-reload";
    prog.entry = layout.codeBase;

    wl::Asm a(layout.codeBase);
    a.li(wl::s0, layout.dataBase);
    a.li(wl::s2, n);
    a.li(wl::s6, 0);
    wl::Label loop = a.newLabel();
    wl::Label done = a.newLabel();
    a.bind(loop);
    a.branch(isa::Op::Beq, wl::s2, wl::zero, done);
    a.rtype(isa::Op::Add, wl::t0, wl::s6, wl::s2);
    a.store(isa::Op::Sd, wl::t0, 0, wl::s0);
    a.load(isa::Op::Ld, wl::t1, 0, wl::s0);
    a.rtype(isa::Op::Add, wl::s6, wl::s6, wl::t1);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.j(loop);
    a.bind(done);
    a.exit(0);
    prog.segments.push_back(a.finish());
    return prog;
}

bool
windowHas(const std::vector<TraceEvent> &win, Ev kind)
{
    return std::any_of(win.begin(), win.end(), [&](const TraceEvent &e) {
        return e.kind == kind;
    });
}

TEST(FaultInjection, FlippedCommitDivergesImmediately)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::coremarkProxy(5));

    TraceBuffer trace(4096);
    soc.core(0).setTrace(&trace);
    dt.attachTrace(&trace, 256);

    soc.core(0).injectCommitFault(0x1);
    dt.run(2'000'000);

    ASSERT_FALSE(dt.ok());
    // The corrupt value is architecturally visible at its own commit,
    // so the checker flags the very first rd-writing instruction.
    EXPECT_LE(dt.stats().commitsChecked, 4u);
    EXPECT_NE(dt.failures().front().find("rd mismatch"),
              std::string::npos)
        << dt.failures().front();

    const auto &win = dt.divergenceWindow();
    ASSERT_FALSE(win.empty());
    EXPECT_TRUE(windowHas(win, Ev::Divergence));
    EXPECT_TRUE(windowHas(win, Ev::FaultInject));

    // The faulty commit itself is in the window: the commit whose pc
    // matches the injection record.
    auto inj = std::find_if(win.begin(), win.end(),
                            [](const TraceEvent &e) {
                                return e.kind == Ev::FaultInject;
                            });
    ASSERT_NE(inj, win.end());
    EXPECT_EQ(inj->arg1, 0u); // commit-flip flavour
    bool faultyCommitPresent = std::any_of(
        win.begin(), win.end(), [&](const TraceEvent &e) {
            return e.kind == Ev::Commit && e.pc == inj->pc &&
                   e.arg0 == inj->arg0;
        });
    EXPECT_TRUE(faultyCommitPresent);
}

TEST(FaultInjection, DroppedStoreDivergesWithinBound)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(storeReloadProgram(200));

    TraceBuffer trace(8192);
    soc.core(0).setTrace(&trace);
    dt.attachTrace(&trace, 4096);

    soc.core(0).injectDropStore();
    dt.run(2'000'000);

    ASSERT_FALSE(dt.ok());
    // Bounded detection latency: the reload right after the dropped
    // first-iteration store exposes it, far before the program's
    // ~1200 commits complete.
    EXPECT_LT(dt.stats().commitsChecked, 100u);

    const auto &win = dt.divergenceWindow();
    ASSERT_FALSE(win.empty());
    EXPECT_TRUE(windowHas(win, Ev::Divergence));
    EXPECT_TRUE(windowHas(win, Ev::FaultInject));
    auto inj = std::find_if(win.begin(), win.end(),
                            [](const TraceEvent &e) {
                                return e.kind == Ev::FaultInject;
                            });
    ASSERT_NE(inj, win.end());
    EXPECT_EQ(inj->arg1, 1u); // drop-store flavour
}

TEST(FaultInjection, CleanRunKeepsEmptyWindow)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::sumProgram(50));

    TraceBuffer trace(1024);
    soc.core(0).setTrace(&trace);
    dt.attachTrace(&trace, 256);

    dt.run(2'000'000);
    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_TRUE(dt.divergenceWindow().empty());
    EXPECT_GT(trace.recorded(), 0u);
}

} // namespace
