#include "analysis/engine.h"

#include <algorithm>
#include <filesystem>
#include <map>

#include "analysis/callgraph.h"
#include "analysis/index.h"
#include "analysis/rules.h"
#include "analysis/suppress.h"

namespace minjie::analysis {

namespace fs = std::filesystem;

namespace {

bool
lintableExtension(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

bool
hasPrefix(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

void
sortFindings(std::vector<Finding> &v)
{
    std::sort(v.begin(), v.end(), [](const Finding &a, const Finding &b) {
        if (a.path != b.path)
            return a.path < b.path;
        if (a.line != b.line)
            return a.line < b.line;
        return a.ruleId < b.ruleId;
    });
}

std::string
trimmed(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() &&
           (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
    return std::string(s);
}

} // namespace

std::vector<std::string>
collectFiles(const EngineConfig &cfg)
{
    std::vector<std::string> out;
    for (const std::string &dir : cfg.scanDirs) {
        fs::path base = fs::path(cfg.root) / dir;
        std::error_code ec;
        if (!fs::is_directory(base, ec))
            continue;
        for (fs::recursive_directory_iterator
                 it(base, fs::directory_options::skip_permission_denied,
                    ec),
             end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (!it->is_regular_file(ec) ||
                !lintableExtension(it->path()))
                continue;
            std::string rel =
                fs::relative(it->path(), cfg.root, ec).generic_string();
            bool excluded = false;
            for (const std::string &px : cfg.excludePrefixes)
                if (hasPrefix(rel, px)) {
                    excluded = true;
                    break;
                }
            if (!excluded)
                out.push_back(std::move(rel));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
Engine::selected(std::string_view id) const
{
    if (cfg_.onlyRules.empty())
        return true;
    for (const std::string &want : cfg_.onlyRules)
        if (id == want)
            return true;
    return false;
}

EngineResult
Engine::run() const
{
    std::vector<SourceFile> files;
    for (const std::string &rel : collectFiles(cfg_)) {
        SourceFile file("", "");
        if (SourceFile::load((fs::path(cfg_.root) / rel).string(), rel,
                             file))
            files.push_back(std::move(file));
    }
    return runOnFiles(files);
}

EngineResult
Engine::runOnFiles(const std::vector<SourceFile> &files) const
{
    EngineResult res;
    std::vector<Finding> raw;
    std::vector<TuIndex> tus;
    std::map<std::string, Suppressions> supByPath;
    std::map<std::string, const SourceFile *> byPath;

    for (const SourceFile &file : files) {
        ++res.filesScanned;
        byPath[file.path()] = &file;
        LexResult lexed = lex(file);
        if (selected("MJ-LAY-001"))
            checkLayout(file, lexed.tokens, raw);
        // Malformed directives are findings themselves, never
        // suppressible.
        std::vector<Finding> supDiags;
        supByPath.emplace(file.path(),
                          Suppressions(file.path(), lexed.comments,
                                       supDiags));
        if (selected("MJ-SUP-001"))
            for (Finding &f : supDiags)
                res.findings.push_back(std::move(f));
        tus.push_back(buildIndex(file, lexed));
    }

    ProgramModel model;
    model.build(tus);
    runGraphRules(
        model, [this](std::string_view id) { return selected(id); }, raw);

    for (Finding &f : raw) {
        auto it = supByPath.find(f.path);
        if (it != supByPath.end() && it->second.allows(f.line, f.ruleId))
            ++res.suppressedInline;
        else
            res.findings.push_back(std::move(f));
    }
    for (Finding &f : res.findings)
        f.snippet = trimmed(byPath.at(f.path)->lineText(f.line));
    sortFindings(res.findings);
    return res;
}

} // namespace minjie::analysis
