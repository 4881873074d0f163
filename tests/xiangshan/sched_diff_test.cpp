/**
 * @file
 * Cycle-exactness differential rig for the core's scheduling fast
 * paths (bitset scoreboard, event-driven idle skipping). Every fast
 * path is an *encoding* of the reference scan model, not an
 * approximation — so for any program the fast configuration must
 * produce byte-identical PerfCounters (including readyHist and all
 * five top-down buckets) and an identical commit probe stream against
 * every ablated reference configuration.
 *
 * The tier-1 binary runs a small smoke subset of seeds; the fuzz-label
 * binary (compiled with -DMINJIE_SCHED_DIFF_FULL=1) sweeps 100+
 * randomized shrinkable programs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "difftest/probes.h"
#include "workload/programs.h"
#include "workload/shrinkable.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
namespace wl = minjie::workload;

#ifdef MINJIE_SCHED_DIFF_FULL
constexpr uint64_t kSeeds = 100; // fuzz label: the full sweep
#else
constexpr uint64_t kSeeds = 8; // tier1: smoke subset
#endif

struct RunOut
{
    bool completed = false;
    Cycle cycles = 0;
    xs::PerfCounters perf{};
    std::vector<difftest::CommitProbe> probes;
};

RunOut
runConfig(const wl::Program &prog, const xs::ModelOpts &model,
          Cycle maxCycles)
{
    xs::CoreConfig cfg = xs::CoreConfig::nh();
    cfg.model = model;
    xs::Soc soc(cfg);
    RunOut out;
    soc.core(0).setCommitBatchHook(
        [&](const difftest::CommitProbe *p, unsigned n) {
            out.probes.insert(out.probes.end(), p, p + n);
        });
    soc.loadProgram(prog);
    auto r = soc.run(maxCycles);
    out.completed = r.completed;
    out.cycles = r.cycles;
    out.perf = soc.core(0).perf();
    return out;
}

bool
probeEq(const difftest::CommitProbe &a, const difftest::CommitProbe &b)
{
    // Field-wise (CommitProbe has padding, so no memcmp).
    return a.hart == b.hart && a.pc == b.pc && a.inst == b.inst &&
           a.rd == b.rd && a.rdWritten == b.rdWritten &&
           a.fpWritten == b.fpWritten && a.rdValue == b.rdValue &&
           a.isLoad == b.isLoad && a.isStore == b.isStore &&
           a.skip == b.skip && a.memVaddr == b.memVaddr &&
           a.memPaddr == b.memPaddr && a.memData == b.memData &&
           a.memSize == b.memSize && a.trap == b.trap &&
           a.trapCause == b.trapCause && a.interrupt == b.interrupt &&
           a.scFailed == b.scFailed;
}

/** First differing counter lane, for a readable failure message. */
std::string
perfDiff(const xs::PerfCounters &a, const xs::PerfCounters &b)
{
    static_assert(sizeof(xs::PerfCounters) % sizeof(uint64_t) == 0);
    const auto *la = reinterpret_cast<const uint64_t *>(&a);
    const auto *lb = reinterpret_cast<const uint64_t *>(&b);
    std::ostringstream os;
    for (size_t i = 0; i < sizeof(a) / sizeof(uint64_t); ++i)
        if (la[i] != lb[i])
            os << " lane" << i << ": " << la[i] << " vs " << lb[i];
    return os.str();
}

void
expectSame(const char *tag, const RunOut &fast, const RunOut &ref)
{
    EXPECT_EQ(fast.completed, ref.completed) << tag;
    EXPECT_EQ(fast.cycles, ref.cycles) << tag;
    EXPECT_EQ(std::memcmp(&fast.perf, &ref.perf, sizeof(fast.perf)), 0)
        << tag << perfDiff(fast.perf, ref.perf);
    ASSERT_EQ(fast.probes.size(), ref.probes.size()) << tag;
    for (size_t i = 0; i < fast.probes.size(); ++i)
        ASSERT_TRUE(probeEq(fast.probes[i], ref.probes[i]))
            << tag << " probe " << i << " pc 0x" << std::hex
            << fast.probes[i].pc << " vs 0x" << ref.probes[i].pc;
}

/** One config per ablation axis plus the all-reference oracle. */
struct Ablation
{
    const char *name;
    xs::ModelOpts opts;
};

const Ablation kAblations[] = {
    {"no-bitset", {false, true}},
    {"no-skip", {true, false}},
    {"reference", {false, false}},
};

class SchedDiff : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SchedDiff, FastPathsAreCycleExact)
{
    const uint64_t seed = GetParam();
    Rng rng(0x5eed0000 + seed);
    wl::RandomSpec spec;
    spec.nInsts = 200 + static_cast<unsigned>(seed % 5) * 80;
    spec.withFp = seed % 4 == 1;
    spec.withRvc = seed % 3 == 1;
    wl::Program prog = wl::randomShrinkable(rng, spec).assemble();

    constexpr Cycle kMaxCycles = 2'000'000;
    xs::ModelOpts fastOpts; // all fast paths on (the default)
    RunOut fast = runConfig(prog, fastOpts, kMaxCycles);
    ASSERT_TRUE(fast.completed) << "seed " << seed;
    ASSERT_GT(fast.probes.size(), 0u);

    for (const Ablation &ab : kAblations) {
        RunOut ref = runConfig(prog, ab.opts, kMaxCycles);
        expectSame(ab.name, fast, ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedDiff,
                         ::testing::Range<uint64_t>(1, 1 + kSeeds));

// Directed workloads stress patterns random programs rarely hit for
// long stretches: predictable tight loops (long idle runs between
// memory events — the skip path's bread and butter) and pointer
// chasing (DRAM-latency idle gaps).
TEST(SchedDiffDirected, SumLoopIsCycleExact)
{
    wl::Program prog = wl::sumProgram(20000);
    xs::ModelOpts fastOpts;
    RunOut fast = runConfig(prog, fastOpts, 5'000'000);
    ASSERT_TRUE(fast.completed);
    for (const Ablation &ab : kAblations)
        expectSame(ab.name, fast, runConfig(prog, ab.opts, 5'000'000));
}

TEST(SchedDiffDirected, CacheMissProxyIsCycleExact)
{
    auto prog = wl::buildProxy(wl::specIntSuite()[2], 400); // mcf proxy
    xs::ModelOpts fastOpts;
    RunOut fast = runConfig(prog, fastOpts, 20'000'000);
    ASSERT_TRUE(fast.completed);
    for (const Ablation &ab : kAblations)
        expectSame(ab.name, fast, runConfig(prog, ab.opts, 20'000'000));
}

// A capped run must stay exact too: the skip path is never allowed to
// overshoot the caller's cycle budget, so a run truncated mid-workload
// charges the identical counters in every configuration.
TEST(SchedDiffDirected, TruncatedRunIsCycleExact)
{
    auto prog = wl::coremarkProxy(50);
    constexpr Cycle kCap = 30'000; // well before completion
    xs::ModelOpts fastOpts;
    RunOut fast = runConfig(prog, fastOpts, kCap);
    EXPECT_FALSE(fast.completed);
    for (const Ablation &ab : kAblations) {
        RunOut ref = runConfig(prog, ab.opts, kCap);
        EXPECT_FALSE(ref.completed);
        expectSame(ab.name, fast, ref);
    }
}

} // namespace
