#include "analysis/suppress.h"

#include <cctype>

namespace minjie::analysis {

namespace {

constexpr std::string_view MARKER = "lint:allow";

std::string_view
trim(std::string_view s)
{
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

} // namespace

Suppressions::Suppressions(const std::string &path,
                           const std::vector<Comment> &comments,
                           std::vector<Finding> &diagnostics)
{
    for (const Comment &cm : comments) {
        size_t pos = cm.text.find(MARKER);
        if (pos == std::string_view::npos)
            continue;
        std::string_view rest = trim(cm.text.substr(pos + MARKER.size()));
        size_t sp = rest.find_first_of(" \t");
        std::string_view ruleId =
            sp == std::string_view::npos ? rest : rest.substr(0, sp);
        std::string_view reason =
            sp == std::string_view::npos ? std::string_view()
                                         : trim(rest.substr(sp));

        if (ruleId.empty() || reason.empty()) {
            Finding f;
            f.ruleId = "MJ-SUP-001";
            f.path = path;
            f.line = cm.line;
            f.col = 1;
            f.message = "lint:allow without " +
                        std::string(ruleId.empty() ? "a rule id"
                                                   : "a justification") +
                        "; write `lint:allow <RULE-ID> <why this is "
                        "safe>`";
            diagnostics.push_back(std::move(f));
            continue;
        }

        Entry e;
        e.ruleId = std::string(ruleId);
        e.line = cm.line;
        entries_.push_back(e);
        if (cm.ownLine) {
            // A directive on its own comment line covers the next line.
            e.line = cm.line + 1;
            entries_.push_back(e);
        }
    }
}

bool
Suppressions::allows(uint32_t line, const std::string &ruleId) const
{
    for (const Entry &e : entries_)
        if (e.line == line && e.ruleId == ruleId)
            return true;
    return false;
}

} // namespace minjie::analysis
