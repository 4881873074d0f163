/**
 * @file
 * A single lint finding.
 */

#ifndef MINJIE_ANALYSIS_FINDING_H
#define MINJIE_ANALYSIS_FINDING_H

#include <cstdint>
#include <string>
#include <vector>

namespace minjie::analysis {

struct Finding
{
    std::string ruleId;  ///< e.g. "MJ-DET2-001"
    std::string path;    ///< repo-relative, '/'-separated
    uint32_t line = 0;   ///< 1-based
    uint32_t col = 0;    ///< 1-based
    std::string message;
    std::string snippet; ///< source line, whitespace-trimmed

    /** Graph-rule witness: the call chain proving reachability, one
     *  "qualName (path:line)" frame per hop, root first. Empty for
     *  per-file findings. */
    std::vector<std::string> callPath;
};

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_FINDING_H
