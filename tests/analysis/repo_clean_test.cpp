/**
 * The repo-is-lint-clean gate, as a unit test: run the full engine
 * over the checked-out src/, tools/, and tests/ trees and require zero
 * unsuppressed findings. The minjie-lint CLI registers the same check
 * as the `lint_repo_clean` ctest; this version produces gtest-grade
 * diagnostics when it fires.
 */

#include <gtest/gtest.h>

#include "analysis/engine.h"

namespace minjie::analysis {
namespace {

EngineConfig
repoConfig()
{
    EngineConfig cfg;
    cfg.root = MINJIE_SOURCE_DIR;
    cfg.scanDirs = {"src", "tools", "tests"};
    cfg.excludePrefixes = {"tests/analysis/fixtures"};
    return cfg;
}

TEST(RepoClean, ZeroUnsuppressedFindings)
{
    auto res = Engine(repoConfig()).run();

    EXPECT_GT(res.filesScanned, 80u) << "scan rooted in the wrong place?";
    for (const Finding &f : res.findings)
        ADD_FAILURE() << f.path << ":" << f.line << ": [" << f.ruleId
                      << "] " << f.message << "\n    " << f.snippet;
    EXPECT_TRUE(res.findings.empty());
}

TEST(RepoClean, InterproceduralPassCoversRepo)
{
    // The graph pass must actually have run over the merged program:
    // a regression that silently dropped the graph rules (or the
    // indexes feeding them) would leave ZeroUnsuppressed green while
    // checking nothing. The two defects this pass originally caught
    // stay pinned by their justified inline suppressions.
    EngineConfig cfg = repoConfig();
    cfg.onlyRules = {"MJ-FRK2-001", "MJ-DET2-001", "MJ-PRB2-001"};
    auto res = Engine(cfg).run();
    for (const Finding &f : res.findings)
        ADD_FAILURE() << f.path << ":" << f.line << ": [" << f.ruleId
                      << "] " << f.message;
    EXPECT_TRUE(res.findings.empty());
    // The historical defect sites remain inline-suppressed (with
    // justifications), proving the rules still see through them.
    EXPECT_GE(res.suppressedInline, 2u);
}

} // namespace
} // namespace minjie::analysis
