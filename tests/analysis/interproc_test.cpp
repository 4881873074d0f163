/**
 * Graph-rule tests driven by the multi-TU fixtures in
 * tests/analysis/fixtures/interproc/. Each contract gets a known-bad
 * set — asserting the exact rule id, finding site, and call-path
 * witness — and a known-clean set proving the sanctioned escape hatch
 * (stderr, Rng:: sink, accessor choke point) really silences the rule,
 * not just the matcher.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/engine.h"

namespace minjie::analysis {
namespace {

std::string
fixturePath(const std::string &name)
{
    return std::string(MINJIE_SOURCE_DIR) +
           "/tests/analysis/fixtures/interproc/" + name;
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
lint(const std::vector<SourceFile> &files)
{
    return Engine(EngineConfig{}).runOnFiles(files);
}

bool
frameMentions(const std::vector<std::string> &frames, size_t i,
              const std::string &needle)
{
    return i < frames.size() &&
           frames[i].find(needle) != std::string::npos;
}

// ----------------------------------------------------------------- FRK2

TEST(Interproc, ForkPathReachesBufferedStdioInHelper)
{
    auto res = lint({
        loadFixture("frk2_root.cpp", "src/lightsss/replay_root.cpp"),
        loadFixture("frk2_helper_bad.cpp", "src/util/progress.cpp"),
    });
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-FRK2-001"], 1);
    ASSERT_EQ(res.findings.size(), 1u);
    const Finding &f = res.findings[0];
    EXPECT_EQ(f.path, "src/util/progress.cpp");
    // Witness: root first, defect site last.
    ASSERT_EQ(f.callPath.size(), 2u);
    EXPECT_TRUE(frameMentions(f.callPath, 0,
                              "minjie::lightsss::replayWindow"))
        << f.callPath[0];
    EXPECT_TRUE(frameMentions(f.callPath, 0, "src/lightsss/"))
        << f.callPath[0];
    EXPECT_TRUE(frameMentions(f.callPath, 1,
                              "minjie::util::emitProgress"))
        << f.callPath[1];
}

TEST(Interproc, SampleWorkerForkPathReachesBufferedStdio)
{
    // The sampled-simulation engine forks one worker per SimPoint
    // slice; a helper that buffers stdio on that path double-emits
    // bytes pending at fork(). src/sample/ roots must fire exactly
    // like src/lightsss/ ones.
    auto res = lint({
        loadFixture("frk2_sample_root.cpp", "src/sample/worker_root.cpp"),
        loadFixture("frk2_helper_bad.cpp", "src/util/progress.cpp"),
    });
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-FRK2-001"], 1);
    ASSERT_EQ(res.findings.size(), 1u);
    const Finding &f = res.findings[0];
    EXPECT_EQ(f.path, "src/util/progress.cpp");
    ASSERT_EQ(f.callPath.size(), 2u);
    EXPECT_TRUE(frameMentions(f.callPath, 0,
                              "minjie::sample::evalSliceForked"))
        << f.callPath[0];
    EXPECT_TRUE(frameMentions(f.callPath, 0, "src/sample/"))
        << f.callPath[0];
}

TEST(Interproc, ForkPathToleratesStderrOnlyHelper)
{
    auto res = lint({
        loadFixture("frk2_root.cpp", "src/lightsss/replay_root.cpp"),
        loadFixture("frk2_helper_clean.cpp", "src/util/progress.cpp"),
    });
    EXPECT_TRUE(res.findings.empty())
        << res.findings[0].ruleId << ": " << res.findings[0].message;
}

TEST(Interproc, ForkRuleIgnoresHelperWithNoForkRoot)
{
    // The same bad helper with no src/lightsss/ TU in the program:
    // nothing is reachable from the fork path, so nothing fires.
    auto res = lint({
        loadFixture("frk2_helper_bad.cpp", "src/util/progress.cpp"),
    });
    EXPECT_TRUE(res.findings.empty());
}

// ----------------------------------------------------------------- DET2

TEST(Interproc, DeterministicPathReachesHostRngInHelper)
{
    auto res = lint({
        loadFixture("det2_root.cpp", "src/campaign/sched_root.cpp"),
        loadFixture("det2_helper_bad.cpp", "src/util/seed_mix.cpp"),
    });
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-DET2-001"], 1);
    ASSERT_EQ(res.findings.size(), 1u);
    const Finding &f = res.findings[0];
    EXPECT_EQ(f.path, "src/util/seed_mix.cpp");
    ASSERT_EQ(f.callPath.size(), 2u);
    EXPECT_TRUE(frameMentions(f.callPath, 0,
                              "minjie::campaign::pickSeed"))
        << f.callPath[0];
    EXPECT_TRUE(frameMentions(f.callPath, 1, "minjie::util::hashSeed"))
        << f.callPath[1];
}

TEST(Interproc, CrossTuUnorderedIterationIsFlagged)
{
    // The unordered declaration and the iteration live in different
    // TUs; only the merged program connects them.
    auto res = lint({
        loadFixture("det2_rows_decl.cpp", "src/util/row_table.h"),
        loadFixture("det2_rows_use.cpp", "src/campaign/rows_use.cpp"),
    });
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-DET2-001"], 1);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].path, "src/campaign/rows_use.cpp");
    EXPECT_NE(res.findings[0].message.find("rowsById"),
              std::string::npos)
        << res.findings[0].message;
}

TEST(Interproc, SanctionedRngSinkIsNotTraversed)
{
    // rand() lives behind the Rng:: wrapper — the sanctioned way to
    // draw randomness — so the deterministic caller stays clean.
    auto res = lint({
        loadFixture("det2_rng_root.cpp", "src/campaign/seed_draw.cpp"),
        loadFixture("det2_rng_sink.cpp", "src/util/rng.cpp"),
    });
    EXPECT_TRUE(res.findings.empty())
        << res.findings[0].ruleId << ": " << res.findings[0].message;
}

// ----------------------------------------------------------------- PRB2

TEST(Interproc, EngineCodeReachesRawArchStoreInHelper)
{
    auto res = lint({
        loadFixture("prb2_root.cpp", "src/nemu/exec_root.cpp"),
        loadFixture("prb2_helper_bad.cpp", "src/util/patch.cpp"),
    });
    auto ids = idCounts(res);
    EXPECT_EQ(ids["MJ-PRB2-001"], 1);
    ASSERT_EQ(res.findings.size(), 1u);
    const Finding &f = res.findings[0];
    EXPECT_EQ(f.path, "src/util/patch.cpp");
    ASSERT_EQ(f.callPath.size(), 2u);
    EXPECT_TRUE(frameMentions(f.callPath, 0,
                              "minjie::nemu::applyPatch"))
        << f.callPath[0];
    EXPECT_TRUE(frameMentions(f.callPath, 1,
                              "minjie::util::patchRegs"))
        << f.callPath[1];
}

TEST(Interproc, StoreBehindAccessorChokePointIsSanctioned)
{
    // The raw store is only reachable THROUGH the exempt ArchState
    // accessor; the BFS refuses to enter exempt files, so the helper
    // stays sanctioned.
    auto res = lint({
        loadFixture("prb2_clean_root.cpp", "src/nemu/exec_clean.cpp"),
        loadFixture("prb2_clean_choke.cpp", "src/iss/arch_state.cpp"),
        loadFixture("prb2_clean_helper.cpp", "src/util/poke.cpp"),
    });
    EXPECT_TRUE(res.findings.empty())
        << res.findings[0].ruleId << ": " << res.findings[0].message;
}

} // namespace
} // namespace minjie::analysis
