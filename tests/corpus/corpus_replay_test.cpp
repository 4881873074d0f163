/**
 * Replays every committed corpus entry (.mjc files in tests/corpus/)
 * as the job it records (an engine pair in lockstep, or DiffTest),
 * through campaign::checkJob with the campaign's default budgets.
 * Entries are minimized programs that once exposed a divergence; on
 * healthy engines and a healthy DUT they must run to completion in full
 * agreement, so a regression of a previously-fixed (or
 * previously-injected) bug fails exactly the test named after its file.
 *
 * MINJIE_CORPUS_DIR is injected by CMake and points at this source
 * directory, so freshly promoted .mjc files are picked up on the next
 * ctest run without editing any test code.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "campaign/campaign.h"
#include "campaign/corpus.h"

namespace {

using namespace minjie::campaign;

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, EnginesAgreeOnMinimizedProgram)
{
    CorpusEntry e;
    ASSERT_TRUE(readCorpusFile(GetParam(), e))
        << "unreadable corpus file " << GetParam();
    EXPECT_FALSE(e.signature.empty());

    JobResult r = checkJob(CampaignConfig{}, e.plan, e.program.assemble());
    EXPECT_FALSE(r.failed) << r.kind << ": corpus regression ("
                           << e.signature << " is back): " << r.signature
                           << ": " << r.detail;
    EXPECT_GT(r.steps, 0u);
}

std::string
testLabel(const ::testing::TestParamInfo<std::string> &info)
{
    std::string stem = std::filesystem::path(info.param).stem().string();
    for (char &c : stem)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return stem;
}

INSTANTIATE_TEST_SUITE_P(Committed, CorpusReplay,
                         ::testing::ValuesIn(
                             listCorpusFiles(MINJIE_CORPUS_DIR)),
                         testLabel);

// The committed corpus must never silently vanish (an empty parameter
// list would skip the suite above without failing anything).
TEST(CorpusReplay, CommittedCorpusIsNonEmpty)
{
    EXPECT_FALSE(listCorpusFiles(MINJIE_CORPUS_DIR).empty())
        << "no .mjc files under " << MINJIE_CORPUS_DIR;
}

} // namespace
