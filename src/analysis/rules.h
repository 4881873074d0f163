/**
 * @file
 * The contracts minjie-lint enforces, one rule each.
 *
 * Three are graph rules over the whole-program call graph: every
 * function defined under the rule's scope is a root, and a forbidden
 * construct anywhere reachable from a root — in the root itself or in
 * a helper defined elsewhere — is a finding that carries its call-path
 * witness. Two are per-file checks.
 *
 *   MJ-DET2-001  graph     nondeterminism reachable from a deterministic
 *                          path (campaign, difftest, reports, sampling)
 *   MJ-FRK2-001  graph     fork-unsafe work reachable from a fork point
 *                          (LightSSS snapshots, sampled-slice workers)
 *   MJ-PRB2-001  graph     arch-state store reachable from engine code
 *                          without passing an ArchState/CsrFile accessor
 *   MJ-LAY-001   per-file  alignas/packed struct without a static_assert
 *   MJ-SUP-001   per-file  lint:allow without a rule id or justification
 */

#ifndef MINJIE_ANALYSIS_RULES_H
#define MINJIE_ANALYSIS_RULES_H

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/finding.h"
#include "analysis/lexer.h"

namespace minjie::analysis {

struct RuleInfo
{
    std::string_view id;
    std::string_view summary; ///< rendered into SARIF rule metadata
    /** Repo-relative path prefixes the contract covers (the roots of a
     *  graph rule). Empty means everywhere. */
    std::vector<std::string> scope;
};

/** Every rule, in stable id order. */
const std::vector<RuleInfo> &ruleCatalog();

/** Run the graph rules whose id @p selected accepts over @p model. */
void runGraphRules(const ProgramModel &model,
                   const std::function<bool(std::string_view)> &selected,
                   std::vector<Finding> &out);

/** MJ-LAY-001 over one lexed file (silent outside its scope). */
void checkLayout(const SourceFile &file, const std::vector<Token> &toks,
                 std::vector<Finding> &out);

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_RULES_H
