/**
 * Unit tests for the suppression directive parser.
 */

#include <gtest/gtest.h>

#include "analysis/lexer.h"
#include "analysis/suppress.h"

namespace minjie::analysis {
namespace {

Suppressions
parse(const std::string &text, std::vector<Finding> &diags,
      const char *path = "src/campaign/x.cpp")
{
    SourceFile f(path, text);
    LexResult r = lex(f);
    return Suppressions(path, r.comments, diags);
}

TEST(Suppress, TrailingDirectiveCoversItsLine)
{
    std::vector<Finding> diags;
    auto s = parse("int a = rand(); // lint:allow MJ-DET2-001 test rig\n",
                   diags);
    EXPECT_TRUE(diags.empty());
    EXPECT_EQ(s.directiveCount(), 1u);
    EXPECT_TRUE(s.allows(1, "MJ-DET2-001"));
    EXPECT_FALSE(s.allows(1, "MJ-PRB2-001"));
    EXPECT_FALSE(s.allows(2, "MJ-DET2-001"));
}

TEST(Suppress, OwnLineDirectiveCoversNextLine)
{
    std::vector<Finding> diags;
    auto s = parse("// lint:allow MJ-FRK2-001 flushed before fork\n"
                   "printf(\"x\");\n",
                   diags);
    EXPECT_TRUE(diags.empty());
    EXPECT_TRUE(s.allows(1, "MJ-FRK2-001"));
    EXPECT_TRUE(s.allows(2, "MJ-FRK2-001"));
    EXPECT_FALSE(s.allows(3, "MJ-FRK2-001"));
}

TEST(Suppress, MissingJustificationIsReported)
{
    std::vector<Finding> diags;
    auto s = parse("int a = rand(); // lint:allow MJ-DET2-001\n", diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "MJ-SUP-001");
    EXPECT_EQ(diags[0].line, 1u);
    // The malformed directive must not suppress anything.
    EXPECT_FALSE(s.allows(1, "MJ-DET2-001"));
}

TEST(Suppress, MissingRuleIdIsReported)
{
    std::vector<Finding> diags;
    parse("// lint:allow\nint a;\n", diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "MJ-SUP-001");
}

} // namespace
} // namespace minjie::analysis
