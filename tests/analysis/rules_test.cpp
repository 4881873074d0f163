/**
 * Rule tests driven by the seeded-violation fixtures in
 * tests/analysis/fixtures/. Each fixture is loaded under a path inside
 * its contract's scope and must trigger exactly the findings its
 * comments claim — no more, no fewer. The same fixtures under an
 * out-of-scope or exempt path must be silent, proving the scoping
 * logic and not just the matchers.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/engine.h"
#include "analysis/rules.h"

namespace minjie::analysis {
namespace {

std::string
fixturePath(const std::string &name)
{
    return std::string(MINJIE_SOURCE_DIR) + "/tests/analysis/fixtures/" +
           name;
}

/** Load fixture @p name as if it lived at @p scopedRel in the repo. */
SourceFile
loadFixture(const std::string &name, const std::string &scopedRel)
{
    SourceFile f("", "");
    if (!SourceFile::load(fixturePath(name), scopedRel, f))
        ADD_FAILURE() << "cannot load fixture " << name;
    return f;
}

/** ruleId -> count over the findings. */
std::map<std::string, int>
idCounts(const EngineResult &res)
{
    std::map<std::string, int> m;
    for (const Finding &f : res.findings)
        ++m[f.ruleId];
    return m;
}

EngineResult
lintOne(const std::string &name, const std::string &scopedRel)
{
    return Engine(EngineConfig{}).runOnFiles({loadFixture(name, scopedRel)});
}

/** Lines of the findings, in report order. */
std::vector<uint32_t>
lines(const EngineResult &res)
{
    std::vector<uint32_t> out;
    for (const Finding &f : res.findings)
        out.push_back(f.line);
    return out;
}

TEST(Rules, DeterminismFixtureFiresExactIds)
{
    auto res = lintOne("determinism.cpp", "src/campaign/fixture.cpp");
    auto ids = idCounts(res);
    // rand(), mt19937, time(), steady_clock, the iterations over the
    // unordered and the pointer-keyed container, and the file-scope
    // random_device; the declarations alone and the ordered iteration
    // are clean.
    EXPECT_EQ(ids["MJ-DET2-001"], 7);
    EXPECT_EQ(res.findings.size(), 7u);
    EXPECT_EQ(lines(res),
              (std::vector<uint32_t>{11, 12, 13, 14, 19, 21, 28}));
}

TEST(Rules, DeterminismScopeCoversXiangshan)
{
    // Regression for the scope extension that came with the scheduler
    // fast paths: the DUT timing model must be bit-reproducible (the
    // sched_diff rig depends on it), so src/xiangshan/ is inside the
    // MJ-DET2 contract and fires exactly like src/campaign/.
    auto res = lintOne("determinism.cpp", "src/xiangshan/fixture.cpp");
    EXPECT_EQ(idCounts(res)["MJ-DET2-001"], 7);
    EXPECT_EQ(res.findings.size(), 7u);
}

TEST(Rules, DeterminismScopeIsEnforced)
{
    // Same content outside the deterministic paths: no contract, no
    // findings (src/uarch is free to use host RNG).
    auto res = lintOne("determinism.cpp", "src/uarch/fixture.cpp");
    EXPECT_TRUE(res.findings.empty());
}

TEST(Rules, ProbeFixtureFiresExactIds)
{
    auto res = lintOne("probe.cpp", "src/nemu/fixture.cpp");
    EXPECT_EQ(idCounts(res)["MJ-PRB2-001"], 3); // x[] =, f[] |=, mstatus =
    ASSERT_EQ(res.findings.size(), 3u);
    EXPECT_NE(res.findings[0].message.find("x[] store"), std::string::npos);
    EXPECT_NE(res.findings[1].message.find("f[] store"), std::string::npos);
    EXPECT_NE(res.findings[2].message.find("csr.mstatus store"),
              std::string::npos);
}

TEST(Rules, ProbeAccessorHomesAreExempt)
{
    // arch_state.h IS the accessor; the rule must not flag the
    // implementation it funnels everything into.
    auto res = lintOne("probe.cpp", "src/iss/arch_state.h");
    EXPECT_TRUE(res.findings.empty());
}

TEST(Rules, ForkFixtureFiresExactIds)
{
    auto res = lintOne("fork.cpp", "src/lightsss/fixture.cpp");
    // std::thread, lock_guard, printf, fflush(stdout), exit(); the
    // stderr-directed writes are clean.
    EXPECT_EQ(idCounts(res)["MJ-FRK2-001"], 5);
    EXPECT_EQ(res.findings.size(), 5u);
    EXPECT_EQ(lines(res), (std::vector<uint32_t>{8, 9, 10, 12, 14}));
}

TEST(Rules, ForkRulesCoverSampleEngineScope)
{
    // Regression for the scope extension that came with the sampled
    // simulation engine: src/sample/ runs its slices in forked
    // workers, so its functions are fork-path roots too. So do
    // campaign jobs, and the fork pool runs both.
    for (const char *path : {"src/sample/fixture.cpp",
                             "src/campaign/fixture.cpp",
                             "src/common/fork_pool.cpp"}) {
        auto res = lintOne("fork.cpp", path);
        EXPECT_EQ(idCounts(res)["MJ-FRK2-001"], 5) << path;
        EXPECT_EQ(res.findings.size(), 5u) << path;
    }
}

TEST(Rules, ForkRulesStopAtLightsssBoundary)
{
    // Code that never runs in a forked process may start threads and
    // take locks.
    auto res = lintOne("fork.cpp", "src/workload/fixture.cpp");
    EXPECT_EQ(idCounts(res)["MJ-FRK2-001"], 0);
}

TEST(Rules, LayoutFixtureFlagsOnlyUnpinnedStruct)
{
    auto res = lintOne("layout.cpp", "src/nemu/fixture.h");
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].ruleId, "MJ-LAY-001");
    EXPECT_NE(res.findings[0].message.find("Unpinned"),
              std::string::npos);
}

TEST(Rules, SuppressedFixtureHonorsAndPolicesDirectives)
{
    auto res = lintOne("suppressed.cpp", "src/campaign/fixture.cpp");
    // Two justified directives suppress their rand() calls; the bare
    // one suppresses nothing and is itself reported.
    EXPECT_EQ(res.suppressedInline, 2u);
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-SUP-001"], 1);
    EXPECT_EQ(ids["MJ-DET2-001"], 1); // the one the bare allow missed
    EXPECT_EQ(res.findings.size(), 2u);
}

TEST(Rules, RuleFilterRestrictsOutput)
{
    EngineConfig cfg;
    cfg.onlyRules = {"MJ-LAY-001"};
    auto res = Engine(cfg).runOnFiles(
        {loadFixture("determinism.cpp", "src/campaign/fixture.cpp"),
         loadFixture("layout.cpp", "src/nemu/fixture.h")});
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].ruleId, "MJ-LAY-001");
}

TEST(Rules, EveryFamilyIsRegistered)
{
    // One rule per contract: each family prefix appears exactly once.
    std::map<std::string, int> families;
    for (const RuleInfo &r : ruleCatalog())
        ++families[std::string(r.id.substr(0, r.id.rfind('-')))];
    EXPECT_EQ(families,
              (std::map<std::string, int>{{"MJ-DET2", 1},
                                          {"MJ-FRK2", 1},
                                          {"MJ-LAY", 1},
                                          {"MJ-PRB2", 1},
                                          {"MJ-SUP", 1}}));
}

} // namespace
} // namespace minjie::analysis
