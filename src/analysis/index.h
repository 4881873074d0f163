/**
 * @file
 * Per-translation-unit symbol index: the facts the graph rules need,
 * extracted once per file from the token stream.
 *
 * The index deliberately stays syntactic — no type resolution, no
 * overload sets. Each function definition carries its call sites plus
 * one event list per contract (nondeterminism sources and container
 * iterations, fork hazards, arch-state writes), and each TU
 * contributes the names of the containers it declares with a
 * host-dependent iteration order. Cross-TU meaning (which iterations
 * hit such a container, which calls resolve to which definitions) is
 * assigned later by ProgramModel.
 */

#ifndef MINJIE_ANALYSIS_INDEX_H
#define MINJIE_ANALYSIS_INDEX_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/source.h"

namespace minjie::analysis {

/** A plain or member call inside a function body. */
struct CallEvent
{
    std::string name;     ///< unqualified callee name
    std::string qualHint; ///< `A::B` qualifier chain, "" when absent
    std::string recv;     ///< member-call receiver name ("" when not a
                          ///< single identifier)
    uint32_t line = 0;
    bool member = false;  ///< receiver-dot/arrow call (`obj.f()`)
};

/** A construct a contract forbids on its paths. */
struct Hazard
{
    std::string what; ///< e.g. "rand()", "x[] store", or for fork
                      ///< hazards the full reason
    uint32_t line = 0;
};

/** Container iteration whose order matters if the container turns out
 *  to be host-ordered (resolved cross-TU by ProgramModel). */
struct IterEvent
{
    std::vector<std::string> names; ///< candidate container names
    uint32_t line = 0;
};

/** One function (or method) definition and everything inside it. */
struct FunctionIndex
{
    std::string qualName; ///< Namespace::Class::name as written
    std::string name;     ///< last component
    uint32_t line = 0;    ///< line of the name token
    std::vector<CallEvent> calls;
    std::vector<Hazard> detSources;  ///< host RNG, wall clock
    std::vector<IterEvent> iterUses; ///< range-for / begin() sites
    std::vector<Hazard> forkHazards; ///< threads, locks, stdio, exit
    std::vector<Hazard> archWrites;  ///< raw regfile / CSR stores
};

/** Everything indexed from one file. */
struct TuIndex
{
    std::string path; ///< repo-relative
    std::vector<FunctionIndex> functions; ///< in definition order
    /** Names declared as std::unordered_* or pointer-keyed ordered
     *  containers: their iteration order is host-dependent. */
    std::vector<std::string> unstableOrderNames;
    /** (variable, type) pairs from `Type name;`-shaped declarations —
     *  the receiver-type hints that narrow member-call resolution. */
    std::vector<std::pair<std::string, std::string>> varTypes;
};

/** Build the index for one lexed file. */
TuIndex buildIndex(const SourceFile &file, const LexResult &lexed);

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_INDEX_H
