/**
 * @file
 * Whole-program model: merged TU indexes, a cross-TU call graph with
 * deterministic node ordering, and a reachability engine that keeps
 * parent pointers so every graph finding carries a call-path witness.
 *
 * Resolution is name-based (no types, no overload sets): a call site
 * `f(...)` gets an edge to every indexed definition named `f`; a
 * qualifier chain at the call site (`Ns::Cls::f`) narrows the
 * candidates when it matches, and a member call `obj.f()` narrows to
 * definitions in classes matching obj's declared type when the index
 * saw a declaration for obj. This over-approximates — exactly right
 * for the "nothing bad is reachable" rules built on top.
 */

#ifndef MINJIE_ANALYSIS_CALLGRAPH_H
#define MINJIE_ANALYSIS_CALLGRAPH_H

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/index.h"

namespace minjie::analysis {

/** One resolved call-graph edge. */
struct Edge
{
    uint32_t target = 0; ///< callee node id
    uint32_t line = 0;   ///< call-site line in the caller
};

/** One function definition in the merged program. Holds a pointer
 *  into the TuIndexes passed to build(), which must outlive the
 *  model. */
struct Node
{
    const FunctionIndex *fn = nullptr;
    std::string path;          ///< defining file, repo-relative
    std::vector<Edge> callees; ///< sorted by (target, line)
};

class ProgramModel
{
  public:
    /** Merge @p tus (any order) into a deterministic graph. */
    void build(const std::vector<TuIndex> &tus);

    const std::vector<Node> &nodes() const { return nodes_; }

    /** True when @p name is declared anywhere in the program as a
     *  container with a host-dependent iteration order. */
    bool hasUnstableOrder(const std::string &name) const
    {
        return unstableOrder_.count(name) != 0;
    }

    /** BFS parent link; node -2 marks a root, -1 unreached. */
    struct Parent
    {
        int32_t node = -1;
        uint32_t line = 0; ///< call-site line in the parent
    };

    /**
     * Multi-root BFS over the call graph. @p enter gates traversal:
     * a node failing it is neither visited nor expanded (used for
     * sanctioned choke points like Logger::log or the CSR accessors).
     * Roots are visited in ascending id order so witness paths are
     * deterministic.
     */
    std::vector<Parent>
    reach(const std::vector<uint32_t> &roots,
          const std::function<bool(uint32_t)> &enter) const;

    /**
     * Call-path witness for @p target: one frame per hop from a root,
     * each "qualName (path:line)" where line is the call site leading
     * to the next frame (the last frame uses @p eventLine).
     */
    std::vector<std::string>
    witness(const std::vector<Parent> &parents, uint32_t target,
            uint32_t eventLine) const;

  private:
    std::vector<Node> nodes_;
    std::set<std::string> unstableOrder_;
};

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_CALLGRAPH_H
