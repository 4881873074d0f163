/**
 * @file
 * The lint engine: walks the tree, tokenizes and indexes each source
 * file, merges the per-TU indexes into a whole-program call graph,
 * runs the graph rules over it plus the per-file layout check, then
 * applies inline suppressions.
 */

#ifndef MINJIE_ANALYSIS_ENGINE_H
#define MINJIE_ANALYSIS_ENGINE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/finding.h"
#include "analysis/source.h"

namespace minjie::analysis {

struct EngineConfig
{
    std::string root;                  ///< repo root (absolute or cwd-rel)
    std::vector<std::string> scanDirs = {"src", "tools"};
    std::vector<std::string> excludePrefixes; ///< repo-relative prefixes
    std::vector<std::string> onlyRules; ///< restrict to these ids
};

struct EngineResult
{
    std::vector<Finding> findings;      ///< unsuppressed, sorted
    uint64_t filesScanned = 0;
    uint64_t suppressedInline = 0;
};

class Engine
{
  public:
    explicit Engine(EngineConfig cfg) : cfg_(std::move(cfg)) {}

    /** Lint every file under the configured scan dirs. */
    EngineResult run() const;

    /** Lint @p files as the whole program (multi-TU fixtures in
     *  tests). */
    EngineResult runOnFiles(const std::vector<SourceFile> &files) const;

  private:
    bool selected(std::string_view id) const;

    EngineConfig cfg_;
};

/** Repo-relative paths of every lintable file under cfg's scan dirs,
 *  sorted so reports are stable across filesystems. */
std::vector<std::string> collectFiles(const EngineConfig &cfg);

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_ENGINE_H
