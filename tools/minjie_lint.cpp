/**
 * @file
 * minjie-lint: static invariant analyzer for the co-simulation stack.
 *
 * Scans src/ and tools/ for violations of the repo's determinism,
 * fork-safety, probe-accessor, and layout contracts (see
 * src/analysis/rules.h for the rule catalog).
 *
 * Exit codes: 0 clean, 1 findings, 2 usage / I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/report.h"
#include "analysis/rules.h"

namespace {

using namespace minjie::analysis;

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: minjie-lint [options]\n"
        "  --root DIR          repo root to scan (default: .)\n"
        "  --scan DIR          scan this dir under root (repeatable;\n"
        "                      default: src tools)\n"
        "  --exclude PREFIX    skip files under this repo-relative "
                              "prefix\n"
        "  --format FMT        human | json | sarif (default: human)\n"
        "  --output FILE       write the report here instead of stdout\n"
        "  --rule ID           run only this rule (repeatable)\n"
        "  --list-rules        print the rule catalog and exit\n");
}

} // namespace

int
main(int argc, char **argv)
{
    EngineConfig cfg;
    cfg.root = ".";
    cfg.scanDirs.clear();
    std::string format = "human";
    std::string output;
    bool listRules = false;

    auto needArg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "minjie-lint: %s needs an argument\n",
                         argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--root")) {
            cfg.root = needArg(i);
        } else if (!std::strcmp(a, "--scan")) {
            cfg.scanDirs.push_back(needArg(i));
        } else if (!std::strcmp(a, "--exclude")) {
            cfg.excludePrefixes.push_back(needArg(i));
        } else if (!std::strcmp(a, "--format")) {
            format = needArg(i);
        } else if (!std::strcmp(a, "--output")) {
            output = needArg(i);
        } else if (!std::strcmp(a, "--rule")) {
            cfg.onlyRules.push_back(needArg(i));
        } else if (!std::strcmp(a, "--list-rules")) {
            listRules = true;
        } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "minjie-lint: unknown option %s\n", a);
            usage(stderr);
            return 2;
        }
    }
    if (cfg.scanDirs.empty())
        cfg.scanDirs = {"src", "tools"};

    if (listRules) {
        for (const RuleInfo &rule : ruleCatalog()) {
            std::printf("%-12s %s\n", std::string(rule.id).c_str(),
                        std::string(rule.summary).c_str());
            for (const std::string &dir : rule.scope)
                std::printf("             scope: %s\n", dir.c_str());
        }
        return 0;
    }

    EngineResult res = Engine(cfg).run();

    std::string report;
    if (format == "human")
        report = renderHuman(res);
    else if (format == "json")
        report = renderJson(res);
    else if (format == "sarif")
        report = renderSarif(res);
    else {
        std::fprintf(stderr, "minjie-lint: unknown format %s\n",
                     format.c_str());
        return 2;
    }

    if (output.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        FILE *f = std::fopen(output.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "minjie-lint: cannot open %s\n",
                         output.c_str());
            return 2;
        }
        std::fputs(report.c_str(), f);
        std::fclose(f);
        // Keep the human summary visible even when redirecting.
        if (format != "human")
            std::printf("minjie-lint: %zu finding%s -> %s\n",
                        res.findings.size(),
                        res.findings.size() == 1 ? "" : "s",
                        output.c_str());
    }

    return res.findings.empty() ? 0 : 1;
}
