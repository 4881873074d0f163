/**
 * @file
 * Soc::runWhile is the one SoC drive loop; Soc::run, runUntilInstrs and
 * DiffTest::run wrap it. This rig pins them to a test-local copy of the
 * loop each used to spell out: identical RunResult, PerfCounters,
 * commit streams and CLINT mtime, over SPEC proxies, random fp/RVC
 * programs, a dual-core SoC and truncated budgets.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/rng.h"
#include "difftest/difftest.h"
#include "obs/serialize.h"
#include "workload/programs.h"
#include "workload/shrinkable.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
namespace wl = minjie::workload;

enum class Api { Run, UntilInstrs, DiffTest };

constexpr InstCount NO_LIMIT = ~0ULL;

/** The drive loop as the three wrappers spelled it out before. */
xs::Soc::RunResult
handLoop(xs::Soc &soc, Cycle maxCycles, InstCount instrs,
         const difftest::DiffTest *dt)
{
    xs::Soc::RunResult r;
    while (r.cycles < maxCycles && soc.core(0).perf().instrs < instrs &&
           (!dt || dt->ok())) {
        soc.system().clint.tick();
        bool allDone = true;
        Cycle spent = 1;
        for (unsigned c = 0; c < soc.numCores(); ++c) {
            if (!soc.core(c).done()) {
                spent = std::max(spent,
                                 soc.core(c).tick(maxCycles - r.cycles));
                allDone = false;
            }
        }
        r.cycles += spent;
        if (spent > 1)
            soc.system().clint.tick(spent - 1);
        if (allDone) {
            r.completed = true;
            break;
        }
    }
    if (instrs != NO_LIMIT && soc.core(0).perf().instrs >= instrs)
        r.completed = true;
    return r;
}

/** What a run leaves behind. Commits are read off the tracer, since
 *  DiffTest owns the commit hook. */
struct Out
{
    xs::Soc::RunResult result;
    uint64_t mtime = 0;
    std::vector<xs::PerfCounters> perf;
    obs::RunArtifact commits;
};

Out
runOnce(const wl::Program &prog, unsigned nCores, Api api, Cycle maxCycles,
        InstCount instrs, bool hand)
{
    xs::Soc soc(xs::CoreConfig::nh(), nCores);
    std::unique_ptr<difftest::DiffTest> dt;
    if (api == Api::DiffTest) {
        dt = std::make_unique<difftest::DiffTest>(soc);
        dt->loadProgram(prog);
    } else {
        soc.loadProgram(prog);
    }
    obs::TraceBuffer trace(1 << 18);
    for (unsigned c = 0; c < nCores; ++c)
        soc.core(c).setTrace(&trace);

    Out out;
    if (hand)
        out.result = handLoop(soc, maxCycles,
                              api == Api::UntilInstrs ? instrs : NO_LIMIT,
                              dt.get());
    else if (api == Api::Run)
        out.result = soc.run(maxCycles);
    else if (api == Api::UntilInstrs)
        out.result = soc.runUntilInstrs(instrs, maxCycles);
    else
        out.result = dt->run(maxCycles);
    if (dt) {
        EXPECT_TRUE(dt->ok()) << dt->failures().front();
    }
    out.mtime = soc.system().clint.mtime();
    for (unsigned c = 0; c < nCores; ++c)
        out.perf.push_back(soc.core(c).perf());
    EXPECT_LT(trace.recorded(), trace.capacity()) << "trace ring wrapped";
    for (const auto &e : trace.events())
        if (e.kind == obs::Ev::Commit)
            out.commits.events.push_back(e);
    return out;
}

TEST(Soc, RunWhileMatchesHandLoop)
{
    // {program, cores}: 4 proxies, 8 random fp/RVC programs, and a
    // dual-core SoC.
    std::vector<std::pair<wl::Program, unsigned>> cases;
    for (const auto *spec :
         {&wl::specIntSuite()[0], &wl::specIntSuite()[2],
          &wl::specFpSuite()[0], &wl::specFpSuite()[11]})
        cases.push_back({wl::buildProxy(*spec, 10), 1});
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(0x50c0000 + seed);
        wl::RandomSpec spec{300, (seed & 1) != 0, (seed & 2) != 0};
        cases.push_back({wl::randomShrinkable(rng, spec).assemble(), 1});
    }
    cases.push_back({wl::coremarkProxy(3), 2});

    // {maxCycles, instrs}: a full run, and one cut off mid-flight.
    const std::pair<Cycle, InstCount> budgets[] = {{2'000'000, 4'000},
                                                   {3'000, 1'500}};
    for (size_t i = 0; i < cases.size(); ++i) {
        const auto &[prog, nCores] = cases[i];
        for (const auto &[maxCycles, instrs] : budgets) {
            for (Api api : {Api::Run, Api::UntilInstrs, Api::DiffTest}) {
                SCOPED_TRACE(::testing::Message()
                             << "case " << i << " api " << static_cast<int>(api)
                             << " maxCycles " << maxCycles);
                Out want = runOnce(prog, nCores, api, maxCycles, instrs, true);
                Out got = runOnce(prog, nCores, api, maxCycles, instrs, false);
                ASSERT_FALSE(want.commits.events.empty());
                EXPECT_EQ(got.result.cycles, want.result.cycles);
                EXPECT_EQ(got.result.completed, want.result.completed);
                EXPECT_EQ(got.mtime, want.mtime);
                for (unsigned c = 0; c < nCores; ++c)
                    EXPECT_EQ(std::memcmp(&got.perf[c], &want.perf[c],
                                          sizeof(xs::PerfCounters)),
                              0)
                        << "core " << c;
                EXPECT_TRUE(got.commits == want.commits);
            }
        }
    }
}

} // namespace
