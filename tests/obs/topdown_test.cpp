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
syntheticMix(uint64_t ret, uint64_t fe, uint64_t bs, uint64_t bm,
             uint64_t bc)
{
    CounterSnapshot s;
    s.set("core0.cycles", ret + fe + bs + bm + bc);
    s.set("core0.instrs", 2 * ret);
    s.set("core0.topdown.retiring", ret);
    s.set("core0.topdown.frontend", fe);
    s.set("core0.topdown.bad_speculation", bs);
    s.set("core0.topdown.backend_memory", bm);
    s.set("core0.topdown.backend_core", bc);
    return s;
}

TEST(CpiStack, FromCountersReadsCollectorNames)
{
    CpiStack st = CpiStack::fromCounters(syntheticMix(10, 20, 30, 40, 50),
                                         "core0");
    EXPECT_EQ(st.cycles, 150u);
    EXPECT_EQ(st.instrs, 20u);
    EXPECT_EQ(st.retiring, 10u);
    EXPECT_EQ(st.frontend, 20u);
    EXPECT_EQ(st.badSpec, 30u);
    EXPECT_EQ(st.backendMem, 40u);
    EXPECT_EQ(st.backendCore, 50u);
    EXPECT_TRUE(st.sumsExactly());
}

TEST(CpiStack, SyntheticMixesAttributeAndSum)
{
    // Pure mixes land entirely in the expected bucket; shares are
    // exact fractions of the cycle total.
    struct Mix
    {
        CpiStack st;
        uint64_t CpiStack::*bucket;
    };
    std::vector<Mix> mixes = {
        {CpiStack::fromCounters(syntheticMix(100, 0, 0, 0, 0), "core0"),
         &CpiStack::retiring},
        {CpiStack::fromCounters(syntheticMix(0, 100, 0, 0, 0), "core0"),
         &CpiStack::frontend},
        {CpiStack::fromCounters(syntheticMix(0, 0, 100, 0, 0), "core0"),
         &CpiStack::badSpec},
        {CpiStack::fromCounters(syntheticMix(0, 0, 0, 100, 0), "core0"),
         &CpiStack::backendMem},
        {CpiStack::fromCounters(syntheticMix(0, 0, 0, 0, 100), "core0"),
         &CpiStack::backendCore},
    };
    for (const auto &m : mixes) {
        EXPECT_TRUE(m.st.sumsExactly());
        EXPECT_EQ(m.st.*(m.bucket), 100u);
        EXPECT_DOUBLE_EQ(m.st.share(m.st.*(m.bucket)), 1.0);
    }

    CpiStack blend =
        CpiStack::fromCounters(syntheticMix(25, 25, 10, 30, 10), "core0");
    EXPECT_TRUE(blend.sumsExactly());
    EXPECT_DOUBLE_EQ(blend.share(blend.retiring), 0.25);
    EXPECT_DOUBLE_EQ(blend.share(blend.backendMem), 0.30);
}

TEST(CpiStack, WeightedReductionPreservesExactSum)
{
    // The sampled-simulation reduction: per-slice snapshots merged
    // with integer SimPoint weight numerators (mergeScaled). Scaling
    // and summing are linear, so the bucket partition must still sum
    // exactly to the weighted cycle total — for any weights.
    auto a = syntheticMix(10, 20, 30, 40, 50);   // 150 cycles
    auto b = syntheticMix(100, 0, 0, 0, 0);      // 100 cycles
    auto c = syntheticMix(7, 13, 0, 19, 23);     // 62 cycles

    CounterSnapshot weighted;
    weighted.mergeScaled(a, 3);
    weighted.mergeScaled(b, 5);
    weighted.mergeScaled(c, 2);

    CpiStack st = CpiStack::fromCounters(weighted, "core0");
    EXPECT_TRUE(st.sumsExactly());
    EXPECT_EQ(st.cycles, 3 * 150u + 5 * 100u + 2 * 62u);
    EXPECT_EQ(st.retiring, 3 * 10u + 5 * 100u + 2 * 7u);
    EXPECT_EQ(st.backendMem, 3 * 40u + 2 * 19u);

    // Grouping invariance: merging pre-scaled partial sums in any
    // order yields the identical snapshot (worker-count invariance).
    CounterSnapshot other;
    other.mergeScaled(c, 2);
    CounterSnapshot partial;
    partial.mergeScaled(b, 5);
    partial.mergeScaled(a, 3);
    other.merge(partial);
    EXPECT_EQ(other, weighted);
    EXPECT_EQ(other.toJson(), weighted.toJson());
}

TEST(CpiStack, MismatchIsReported)
{
    CounterSnapshot s = syntheticMix(10, 10, 10, 10, 10);
    s.set("core0.cycles", 51); // one unattributed cycle
    CpiStack st = CpiStack::fromCounters(s, "core0");
    EXPECT_FALSE(st.sumsExactly());
    EXPECT_NE(st.table("t").find("MISMATCH"), std::string::npos);
}

TEST(CpiStack, TableIsDeterministicAndMarksExactness)
{
    CpiStack st =
        CpiStack::fromCounters(syntheticMix(10, 20, 30, 40, 50), "core0");
    std::string t1 = st.table("run core0");
    EXPECT_EQ(t1, st.table("run core0"));
    EXPECT_NE(t1.find("(exact)"), std::string::npos);
    EXPECT_NE(t1.find("backend_memory"), std::string::npos);
}

/** Run one workload and return core0's collected snapshot. */
CounterSnapshot
runAndCollect(const wl::Program &prog, Cycle maxCycles)
{
    xs::Soc soc(xs::CoreConfig::nh());
    soc.loadProgram(prog);
    soc.run(maxCycles);
    CounterGroup root;
    collectSoc(root, soc);
    return root.snapshot();
}

TEST(CpiStack, RealRunSumsExactlyCoremark)
{
    // The acceptance gate: every simulated cycle lands in exactly one
    // bucket, so the stack partitions the measured cycle count.
    CpiStack st = CpiStack::fromCounters(
        runAndCollect(wl::coremarkProxy(30), 500'000), "core0");
    ASSERT_GT(st.cycles, 0u);
    ASSERT_GT(st.instrs, 0u);
    EXPECT_TRUE(st.sumsExactly())
        << "bucket sum " << st.bucketSum() << " != cycles " << st.cycles;
    EXPECT_GT(st.retiring, 0u);
}

TEST(CpiStack, RealRunSumsExactlyMemStress)
{
    // A pointer-chasing working set far beyond L1 must show up as
    // backend-memory pressure, and still partition exactly.
    CpiStack st = CpiStack::fromCounters(
        runAndCollect(wl::memStressProgram(60, 64), 500'000), "core0");
    ASSERT_GT(st.cycles, 0u);
    EXPECT_TRUE(st.sumsExactly())
        << "bucket sum " << st.bucketSum() << " != cycles " << st.cycles;
    EXPECT_GT(st.backendMem, 0u);
}

} // namespace
