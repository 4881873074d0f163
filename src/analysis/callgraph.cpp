#include "analysis/callgraph.h"

#include <algorithm>
#include <deque>
#include <map>

namespace minjie::analysis {

namespace {

/** True when @p q is @p want or ends with "::" + @p want. */
bool
qualMatches(const std::string &q, const std::string &want)
{
    if (q == want)
        return true;
    if (q.size() < want.size() + 2)
        return false;
    size_t at = q.size() - want.size();
    return q.compare(at, want.size(), want) == 0 &&
           q[at - 1] == ':' && q[at - 2] == ':';
}

/** True when @p inner is @p outer or nested inside it (`outer::...`). */
bool
scopeContains(const std::string &outer, const std::string &inner)
{
    if (outer.empty() || outer == inner)
        return true;
    return inner.size() > outer.size() + 2 &&
           inner.compare(0, outer.size(), outer) == 0 &&
           inner[outer.size()] == ':' && inner[outer.size() + 1] == ':';
}

} // namespace

void
ProgramModel::build(const std::vector<TuIndex> &tus)
{
    nodes_.clear();
    unstableOrder_.clear();
    // variable name -> declared type names seen anywhere (union over
    // TUs; a name reused with different types keeps every hint)
    std::map<std::string, std::set<std::string>> varTypes;
    std::map<std::string, std::vector<uint32_t>> byName;

    for (const TuIndex &tu : tus) {
        unstableOrder_.insert(tu.unstableOrderNames.begin(),
                              tu.unstableOrderNames.end());
        for (const auto &[var, type] : tu.varTypes)
            varTypes[var].insert(type);
        for (const FunctionIndex &fn : tu.functions) {
            Node node;
            node.fn = &fn;
            node.path = tu.path;
            nodes_.push_back(std::move(node));
        }
    }

    // Deterministic node order regardless of scan order.
    std::sort(nodes_.begin(), nodes_.end(),
              [](const Node &a, const Node &b) {
                  if (a.fn->qualName != b.fn->qualName)
                      return a.fn->qualName < b.fn->qualName;
                  if (a.path != b.path)
                      return a.path < b.path;
                  return a.fn->line < b.fn->line;
              });

    for (uint32_t id = 0; id < nodes_.size(); ++id)
        byName[nodes_[id].fn->name].push_back(id);

    // Resolve edges. Candidates share the bare name; then:
    //  - a qualifier chain at the call site narrows to definitions
    //    whose qualName ends with it;
    //  - a member call (obj.f()) narrows to definitions whose
    //    enclosing class matches a declared type of `obj` when the
    //    index saw one (an empty result means the callee lives
    //    outside the repo, e.g. std::fstream::write); receivers with
    //    no type hint stay conservative and match any definition;
    //  - a plain unqualified call can only name a function visible
    //    from the caller's scope: the candidate's enclosing scope
    //    must be a prefix of the caller's. This is what keeps
    //    `write(fd, ...)` (a syscall) from resolving to
    //    SomeClass::write in an unrelated subsystem.
    for (uint32_t id = 0; id < nodes_.size(); ++id) {
        Node &node = nodes_[id];
        std::string callerScope = node.fn->qualName;
        size_t cut = callerScope.rfind("::");
        callerScope =
            cut == std::string::npos ? "" : callerScope.substr(0, cut);
        for (const CallEvent &c : node.fn->calls) {
            auto it = byName.find(c.name);
            if (it == byName.end())
                continue;
            std::vector<uint32_t> targets;
            if (!c.qualHint.empty()) {
                std::string want = c.qualHint + "::" + c.name;
                for (uint32_t t : it->second)
                    if (qualMatches(nodes_[t].fn->qualName, want))
                        targets.push_back(t);
                if (targets.empty())
                    targets = it->second; // alias/using: stay broad
            } else if (c.member) {
                auto vt = c.recv.empty() ? varTypes.end()
                                         : varTypes.find(c.recv);
                if (vt == varTypes.end()) {
                    targets = it->second;
                } else {
                    for (uint32_t t : it->second) {
                        const std::string &q = nodes_[t].fn->qualName;
                        size_t tc = q.rfind("::");
                        if (tc == std::string::npos || tc == 0)
                            continue;
                        size_t sc = q.rfind("::", tc - 1);
                        std::string cls = q.substr(
                            sc == std::string::npos ? 0 : sc + 2,
                            tc - (sc == std::string::npos ? 0
                                                          : sc + 2));
                        if (vt->second.count(cls) != 0)
                            targets.push_back(t);
                    }
                }
            } else {
                for (uint32_t t : it->second) {
                    const std::string &q = nodes_[t].fn->qualName;
                    size_t tc = q.rfind("::");
                    std::string scope =
                        tc == std::string::npos ? "" : q.substr(0, tc);
                    if (scopeContains(scope, callerScope))
                        targets.push_back(t);
                }
            }
            for (uint32_t t : targets)
                node.callees.push_back({t, c.line});
        }
        std::sort(node.callees.begin(), node.callees.end(),
                  [](const Edge &a, const Edge &b) {
                      if (a.target != b.target)
                          return a.target < b.target;
                      return a.line < b.line;
                  });
        node.callees.erase(
            std::unique(node.callees.begin(), node.callees.end(),
                        [](const Edge &a, const Edge &b) {
                            return a.target == b.target;
                        }),
            node.callees.end());
    }
}

std::vector<ProgramModel::Parent>
ProgramModel::reach(const std::vector<uint32_t> &roots,
                    const std::function<bool(uint32_t)> &enter) const
{
    std::vector<Parent> parents(nodes_.size());
    std::deque<uint32_t> queue;

    std::vector<uint32_t> sortedRoots = roots;
    std::sort(sortedRoots.begin(), sortedRoots.end());
    for (uint32_t r : sortedRoots) {
        if (parents[r].node != -1 || (enter && !enter(r)))
            continue;
        parents[r].node = -2;
        queue.push_back(r);
    }

    while (!queue.empty()) {
        uint32_t u = queue.front();
        queue.pop_front();
        for (const Edge &e : nodes_[u].callees) {
            if (parents[e.target].node != -1)
                continue;
            if (enter && !enter(e.target))
                continue;
            parents[e.target].node = static_cast<int32_t>(u);
            parents[e.target].line = e.line;
            queue.push_back(e.target);
        }
    }
    return parents;
}

std::vector<std::string>
ProgramModel::witness(const std::vector<Parent> &parents,
                      uint32_t target, uint32_t eventLine) const
{
    // Collect the chain root..target, then render each frame with the
    // line of the call that leads to the NEXT frame.
    std::vector<uint32_t> chain;
    int32_t cur = static_cast<int32_t>(target);
    while (cur >= 0) {
        chain.push_back(static_cast<uint32_t>(cur));
        if (parents[static_cast<size_t>(cur)].node == -2)
            break;
        cur = parents[static_cast<size_t>(cur)].node;
    }
    std::reverse(chain.begin(), chain.end());

    std::vector<std::string> frames;
    frames.reserve(chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
        const Node &n = nodes_[chain[i]];
        uint32_t line = i + 1 < chain.size()
                            ? parents[chain[i + 1]].line
                            : eventLine;
        frames.push_back(n.fn->qualName + " (" + n.path + ":" +
                         std::to_string(line) + ")");
    }
    return frames;
}

} // namespace minjie::analysis
