#include <gtest/gtest.h>

#include "iss/interp.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::workload;

TEST(Programs, SuitesMatchPaperBenchmarkLists)
{
    // Figure 8/12 exclude 400.perlbench and 435.gromacs.
    auto &ints = specIntSuite();
    auto &fps = specFpSuite();
    EXPECT_EQ(ints.size(), 11u);
    EXPECT_EQ(fps.size(), 15u);
    for (const auto &s : ints) {
        EXPECT_FALSE(s.fp);
        EXPECT_NE(std::string(s.name), "400.perlbench");
    }
    for (const auto &s : fps) {
        EXPECT_TRUE(s.fp);
        EXPECT_GT(s.fpPct, 0u);
        EXPECT_NE(std::string(s.name), "435.gromacs");
    }
}

class ProxyRunTest : public ::testing::TestWithParam<int> {};

TEST_P(ProxyRunTest, EveryIntProxyRunsToCompletion)
{
    const auto &spec = specIntSuite()[GetParam()];
    iss::System sys(128);
    auto prog = buildProxy(spec, 20);
    prog.loadInto(sys.dram);
    iss::SpikeInterp interp(sys.bus, 0, prog.entry);
    interp.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = interp.run(5'000'000);
    ASSERT_TRUE(r.halted) << spec.name;
    EXPECT_EQ(sys.simctrl.exitCode(), 0u) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllInt, ProxyRunTest,
    ::testing::Range(0, static_cast<int>(specIntSuite().size())),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string n = specIntSuite()[info.param].name;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

class FpProxyRunTest : public ::testing::TestWithParam<int> {};

TEST_P(FpProxyRunTest, EveryFpProxyRunsToCompletion)
{
    const auto &spec = specFpSuite()[GetParam()];
    iss::System sys(128);
    auto prog = buildProxy(spec, 20);
    prog.loadInto(sys.dram);
    iss::SpikeInterp interp(sys.bus, 0, prog.entry);
    interp.setHaltFn([&] { return sys.simctrl.exited(); });
    auto r = interp.run(5'000'000);
    ASSERT_TRUE(r.halted) << spec.name;
    EXPECT_EQ(sys.simctrl.exitCode(), 0u) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFp, FpProxyRunTest,
    ::testing::Range(0, static_cast<int>(specFpSuite().size())),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string n = specFpSuite()[info.param].name;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Programs, ProxyIsDeterministicPerSeed)
{
    auto a = buildProxy(specIntSuite()[0], 10, 7);
    auto b = buildProxy(specIntSuite()[0], 10, 7);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (size_t i = 0; i < a.segments.size(); ++i)
        EXPECT_EQ(a.segments[i].bytes, b.segments[i].bytes);

    auto c = buildProxy(specIntSuite()[0], 10, 8);
    EXPECT_NE(a.segments.back().bytes, c.segments.back().bytes);
}

TEST(Programs, FpProxyExercisesFpUnits)
{
    // Count executed fp instructions on a SPECfp proxy.
    iss::System sys(128);
    auto prog = buildProxy(specFpSuite()[0], 20); // bwaves
    prog.loadInto(sys.dram);
    iss::SpikeInterp interp(sys.bus, 0, prog.entry);
    interp.setHaltFn([&] { return sys.simctrl.exited(); });

    uint64_t fpCount = 0, total = 0;
    while (!sys.simctrl.exited() && total < 2'000'000) {
        Addr pc = interp.state().pc;
        (void)pc;
        iss::ExecInfo info;
        interp.step(&info);
        ++total;
    }
    // Re-run counting decoded fp ops via the cycle-free interp trace is
    // costly; instead assert the fp registers were touched.
    bool fpTouched = false;
    for (int i = 0; i < 32; ++i)
        fpTouched |= interp.state().f[i] != 0;
    EXPECT_TRUE(fpTouched);
    (void)fpCount;
}

TEST(Programs, MemStressFootprintScales)
{
    iss::System big(256);
    auto prog = memStressProgram(3000, 32);
    prog.loadInto(big.dram);
    iss::SpikeInterp interp(big.bus, 0, prog.entry);
    interp.setHaltFn([&] { return big.simctrl.exited(); });
    interp.run(10'000'000);
    size_t bigPages = big.dram.allocatedPages();

    iss::System small(256);
    auto prog2 = memStressProgram(3000, 4);
    prog2.loadInto(small.dram);
    iss::SpikeInterp interp2(small.bus, 0, prog2.entry);
    interp2.setHaltFn([&] { return small.simctrl.exited(); });
    interp2.run(10'000'000);
    EXPECT_GT(bigPages, small.dram.allocatedPages());
}

TEST(Programs, RandomProgramsAlwaysTerminate)
{
    for (int seed = 100; seed < 110; ++seed) {
        Rng rng(seed);
        auto prog = randomProgram(rng, 200, seed % 2 == 0);
        iss::System sys(32);
        prog.loadInto(sys.dram);
        iss::SpikeInterp interp(sys.bus, 0, prog.entry);
        interp.setHaltFn([&] { return sys.simctrl.exited(); });
        auto r = interp.run(100'000);
        EXPECT_TRUE(r.halted) << "seed " << seed;
    }
}

TEST(Programs, ByNameBuildsEveryListedNameAndRejectsOthers)
{
    for (const auto &name : names())
        EXPECT_TRUE(byName(name, 2)) << name;
    EXPECT_FALSE(byName("nosuch", 2));
}

} // namespace
