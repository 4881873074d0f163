/**
 * @file
 * Top-down observability vs the event-driven scheduler fast path: the
 * idle-skip must be invisible to the CPI stack. Skipped cycles are
 * charged to the same buckets the reference tick-by-tick model would
 * have charged, so the stack still partitions the cycle count exactly
 * and the rendered `minjie-trace topdown` table is byte-identical with
 * the skip on or off. Only the sched.* host-speed metadata (which is
 * deliberately outside PerfCounters) is allowed to differ.
 */

#include <gtest/gtest.h>

#include "obs/collect.h"
#include "obs/topdown.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
using namespace minjie::obs;
namespace wl = minjie::workload;

CounterSnapshot
runAndCollect(const wl::Program &prog, bool skipAhead, Cycle maxCycles)
{
    xs::CoreConfig cfg = xs::CoreConfig::nh();
    cfg.model.skipAhead = skipAhead;
    xs::Soc soc(cfg);
    soc.loadProgram(prog);
    soc.run(maxCycles);
    CounterGroup root;
    collectSoc(root, soc);
    return root.snapshot();
}

TEST(TopdownSkip, CpiStackUnchangedBySkip)
{
    auto prog = wl::coremarkProxy(30);
    CounterSnapshot fast = runAndCollect(prog, true, 500'000);
    CounterSnapshot ref = runAndCollect(prog, false, 500'000);

    CpiStack stFast = CpiStack::fromCounters(fast, "core0");
    CpiStack stRef = CpiStack::fromCounters(ref, "core0");

    // Both configurations keep the exact-sum invariant...
    ASSERT_GT(stFast.cycles, 0u);
    EXPECT_TRUE(stFast.sumsExactly())
        << "bucket sum " << stFast.bucketSum() << " != cycles "
        << stFast.cycles;
    EXPECT_TRUE(stRef.sumsExactly());

    // ...and agree bucket-for-bucket.
    EXPECT_EQ(stFast.cycles, stRef.cycles);
    EXPECT_EQ(stFast.instrs, stRef.instrs);
    EXPECT_EQ(stFast.retiring, stRef.retiring);
    EXPECT_EQ(stFast.frontend, stRef.frontend);
    EXPECT_EQ(stFast.badSpec, stRef.badSpec);
    EXPECT_EQ(stFast.backendMem, stRef.backendMem);
    EXPECT_EQ(stFast.backendCore, stRef.backendCore);

    // The rendered artifacts `minjie-trace topdown` emits must be
    // byte-identical: a user reading a report cannot tell (and must
    // not have to care) which scheduler configuration produced it.
    EXPECT_EQ(stFast.table("core0"), stRef.table("core0"));
    EXPECT_EQ(stFast.toJson(), stRef.toJson());

    // The skip did actually engage — this test must not pass vacuously.
    EXPECT_GT(fast.get("core0.sched.skipped_cycles"), 0u);
    EXPECT_GT(fast.get("core0.sched.skip_jumps"), 0u);
    EXPECT_EQ(ref.get("core0.sched.skipped_cycles"), 0u);
    EXPECT_EQ(ref.get("core0.sched.skip_jumps"), 0u);
}

TEST(TopdownSkip, EverySnapshotCounterMatchesExceptSchedMeta)
{
    // Stronger than the stack: the entire collected snapshot (caches,
    // TLBs, MMU, ready histogram, ...) must match; only the sched.*
    // host-speed metadata group may differ between configurations.
    auto prog = wl::memStressProgram(40, 64);
    CounterSnapshot fast = runAndCollect(prog, true, 500'000);
    CounterSnapshot ref = runAndCollect(prog, false, 500'000);

    ASSERT_EQ(fast.values.size(), ref.values.size());
    unsigned schedKeys = 0;
    for (const auto &[k, v] : fast.values) {
        if (k.find(".sched.") != std::string::npos) {
            ++schedKeys;
            continue;
        }
        EXPECT_EQ(v, ref.get(k)) << "counter " << k;
    }
    EXPECT_EQ(schedKeys, 2u); // skipped_cycles, skip_jumps
}

} // namespace
