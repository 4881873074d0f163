/**
 * @file
 * Inline suppressions: `// lint:allow <RULE-ID> <justification>`.
 *
 * A directive on the flagged line (or on a comment line directly
 * above it) suppresses that rule there. The justification is
 * mandatory — a bare allow is itself reported (MJ-SUP-001) so
 * suppressions cannot silently accumulate without rationale.
 */

#ifndef MINJIE_ANALYSIS_SUPPRESS_H
#define MINJIE_ANALYSIS_SUPPRESS_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/finding.h"
#include "analysis/lexer.h"

namespace minjie::analysis {

class Suppressions
{
  public:
    /**
     * Parse every lint:allow directive in @p comments (from @p path).
     * Malformed directives (missing rule id or justification) are
     * appended to @p diagnostics as MJ-SUP-001 findings.
     */
    Suppressions(const std::string &path,
                 const std::vector<Comment> &comments,
                 std::vector<Finding> &diagnostics);

    /** True when @p ruleId is allowed on @p line. */
    bool allows(uint32_t line, const std::string &ruleId) const;

    uint64_t directiveCount() const { return entries_.size(); }

  private:
    struct Entry
    {
        uint32_t line; ///< line the directive covers
        std::string ruleId;
    };
    std::vector<Entry> entries_;
};

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_SUPPRESS_H
