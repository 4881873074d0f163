#include "analysis/rules.h"

namespace minjie::analysis {

namespace {

enum RuleIdx { DET, FRK, PRB, LAY, SUP };

const std::vector<RuleInfo> CATALOG = {
    {"MJ-DET2-001",
     "nondeterminism (host RNG, wall clock, hash- or address-ordered "
     "iteration) reachable from a deterministic path",
     {"src/campaign/", "src/difftest/", "src/archdb/", "src/obs/",
      "src/checkpoint/", "src/sample/", "src/xiangshan/", "tools/"}},
    // The tracer's record path runs between LightSSS fork points; slices
    // and campaign jobs run in fork pool workers, behind a std::function.
    {"MJ-FRK2-001",
     "fork-unsafe work (threads, locks, buffered stdio, fflush, exit) "
     "reachable from a fork point",
     {"src/lightsss/", "src/obs/", "src/sample/", "src/campaign/",
      "src/common/fork_pool.cpp"}},
    {"MJ-PRB2-001",
     "arch-state store reachable from engine code without passing an "
     "accessor choke point",
     {"src/iss/", "src/nemu/", "src/difftest/"}},
    {"MJ-LAY-001",
     "alignas/packed struct without a static_assert pinning its size or "
     "alignment",
     {"src/", "tools/"}},
    {"MJ-SUP-001", "lint:allow without a rule id or justification", {}},
};

/** The accessor / trap-machinery homes: PRB2's choke points. */
const std::vector<std::string> PRB_EXEMPT = {
    "src/iss/arch_state.h",
    "src/iss/arch_state.cpp",
    "src/iss/csrfile.h",
    "src/iss/csrfile.cpp",
};

/** True when @p path starts with one of @p prefixes (or when there
 *  are none: a repo-wide rule). */
bool
inScope(const std::string &path, const std::vector<std::string> &prefixes)
{
    if (prefixes.empty())
        return true;
    for (const std::string &p : prefixes)
        if (path.compare(0, p.size(), p) == 0)
            return true;
    return false;
}

/** Test code is never a runtime callee of production code; letting
 *  name collisions pull test helpers into the graph is pure noise. */
bool
isTestPath(const std::string &path)
{
    return path.compare(0, 6, "tests/") == 0;
}

/** Sanctioned choke points DET2 and FRK2 never traverse into: the
 *  flushing logger, the seeded Rng, the reporting-only Stopwatch, and
 *  the abort paths quiesce or terminate, so nothing "reachable
 *  through" them matters. */
bool
isSanctionedSink(const Node &n)
{
    if (n.fn->name == "panic" || n.fn->name == "fatal")
        return true;
    return n.fn->qualName.find("Logger::") != std::string::npos ||
           n.fn->qualName.find("Stopwatch::") != std::string::npos ||
           n.fn->qualName.find("Rng::") != std::string::npos;
}

bool
isPrbExempt(const Node &n)
{
    for (const std::string &e : PRB_EXEMPT)
        if (n.path == e)
            return true;
    return false;
}

struct Event
{
    uint32_t line;
    std::string message;
};

/**
 * One reachability contract: BFS from every function defined under
 * @p rule's scope through the nodes @p enter admits, then report the
 * events @p events extracts from each reached function, each with its
 * call-path witness.
 */
void
checkReachable(const ProgramModel &m, const RuleInfo &rule,
               const std::function<bool(const Node &)> &enter,
               const std::function<void(const Node &,
                                        std::vector<Event> &)> &events,
               std::vector<Finding> &out)
{
    const auto &nodes = m.nodes();
    std::vector<uint32_t> roots;
    for (uint32_t id = 0; id < static_cast<uint32_t>(nodes.size()); ++id)
        if (inScope(nodes[id].path, rule.scope))
            roots.push_back(id);
    auto parents = m.reach(roots, [&](uint32_t id) {
        return !isTestPath(nodes[id].path) && enter(nodes[id]);
    });

    std::vector<Event> evs;
    for (uint32_t id = 0; id < static_cast<uint32_t>(nodes.size()); ++id) {
        if (parents[id].node == -1)
            continue;
        evs.clear();
        events(nodes[id], evs);
        for (Event &e : evs) {
            Finding f;
            f.ruleId = std::string(rule.id);
            f.path = nodes[id].path;
            f.line = e.line;
            f.col = 1;
            f.message = std::move(e.message);
            f.callPath = m.witness(parents, id, e.line);
            out.push_back(std::move(f));
        }
    }
}

size_t
closeParen(const std::vector<Token> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].is("("))
            ++depth;
        else if (toks[i].is(")") && --depth == 0)
            return i;
    }
    return toks.size();
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    return CATALOG;
}

void
runGraphRules(const ProgramModel &m,
              const std::function<bool(std::string_view)> &selected,
              std::vector<Finding> &out)
{
    if (selected(CATALOG[DET].id))
        checkReachable(
            m, CATALOG[DET],
            [](const Node &n) { return !isSanctionedSink(n); },
            [&m](const Node &n, std::vector<Event> &evs) {
                for (const Hazard &d : n.fn->detSources)
                    evs.push_back(
                        {d.line, d.what + " is host-nondeterministic and "
                                          "reachable from a deterministic "
                                          "path; outputs must be a pure "
                                          "function of the seed"});
                for (const IterEvent &it : n.fn->iterUses)
                    for (const std::string &name : it.names)
                        if (m.hasUnstableOrder(name)) {
                            evs.push_back(
                                {it.line,
                                 "iteration over '" + name +
                                     "', declared std::unordered_* or "
                                     "pointer-keyed: order is "
                                     "host-dependent yet this code is "
                                     "reachable from a deterministic "
                                     "path; iterate in sorted key "
                                     "order"});
                            break;
                        }
            },
            out);

    if (selected(CATALOG[FRK].id))
        checkReachable(
            m, CATALOG[FRK],
            [](const Node &n) { return !isSanctionedSink(n); },
            [](const Node &n, std::vector<Event> &evs) {
                for (const Hazard &h : n.fn->forkHazards)
                    evs.push_back(
                        {h.line, "reachable from a fork point: " + h.what});
            },
            out);

    // The accessors ARE the choke point: a store reached through them
    // is sanctioned, so the BFS never enters the exempt files.
    if (selected(CATALOG[PRB].id))
        checkReachable(
            m, CATALOG[PRB],
            [](const Node &n) { return !isPrbExempt(n); },
            [](const Node &n, std::vector<Event> &evs) {
                for (const Hazard &w : n.fn->archWrites)
                    evs.push_back(
                        {w.line, "direct " + w.what +
                                     " reachable from engine code "
                                     "bypasses the ArchState/CsrFile "
                                     "accessor choke point (and its "
                                     "DiffTest probes)"});
            },
            out);
}

void
checkLayout(const SourceFile &file, const std::vector<Token> &toks,
            std::vector<Finding> &out)
{
    if (!inScope(file.path(), CATALOG[LAY].scope))
        return;

    // Names covered by a static_assert(sizeof(...)/alignof(...))
    // anywhere in this file.
    std::vector<std::string_view> asserted;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].isIdent("static_assert") || !toks[i + 1].is("("))
            continue;
        size_t close = closeParen(toks, i + 1);
        bool layoutClaim = false;
        for (size_t j = i + 2; j < close; ++j)
            if (toks[j].isIdent("sizeof") || toks[j].isIdent("alignof")) {
                layoutClaim = true;
                break;
            }
        if (!layoutClaim)
            continue;
        for (size_t j = i + 2; j < close; ++j)
            if (toks[j].kind == Tok::Ident)
                asserted.push_back(toks[j].text);
    }

    for (size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].isIdent("alignas") && !toks[i].isIdent("packed"))
            continue;

        // Find the struct/class this attribute decorates: scan back a
        // short window for the keyword, then forward from it for the
        // first plain identifier that is the tag name.
        size_t kw = 0;
        bool haveKw = false;
        for (size_t back = 0; back < 12 && back <= i; ++back) {
            size_t j = i - back;
            if (toks[j].isIdent("struct") || toks[j].isIdent("class")) {
                kw = j;
                haveKw = true;
                break;
            }
            if (toks[j].is(";") || toks[j].is("}"))
                break;
        }
        if (!haveKw)
            continue; // alignas on a variable / array: out of scope
        std::string_view name;
        int depth = 0;
        for (size_t j = kw + 1; j < toks.size() && j < kw + 24; ++j) {
            if (toks[j].is("(") || toks[j].is("["))
                ++depth;
            else if (toks[j].is(")") || toks[j].is("]"))
                --depth;
            else if (depth == 0 && toks[j].kind == Tok::Ident &&
                     !toks[j].isIdent("alignas") &&
                     !toks[j].isIdent("packed") &&
                     !toks[j].isIdent("gnu") &&
                     !toks[j].isIdent("__attribute__") &&
                     !toks[j].isIdent("final")) {
                name = toks[j].text;
                break;
            } else if (depth == 0 && (toks[j].is("{") || toks[j].is(";")))
                break;
        }
        bool covered = false;
        for (std::string_view a : asserted)
            covered = covered || a == name;
        if (name.empty() || covered)
            continue;

        Finding f;
        f.ruleId = std::string(CATALOG[LAY].id);
        f.path = file.path();
        f.line = toks[i].line;
        f.col = toks[i].col;
        f.message = "struct " + std::string(name) +
                    " requests a layout (alignas/packed) but no "
                    "static_assert in this file pins sizeof/alignof(" +
                    std::string(name) + "); layout drift would be silent";
        out.push_back(std::move(f));
    }
}

} // namespace minjie::analysis
