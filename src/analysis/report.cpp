#include "analysis/report.h"

#include <cstdio>

#include "analysis/rules.h"
#include "common/jsonw.h"

namespace minjie::analysis {

std::string
renderHuman(const EngineResult &res)
{
    std::string out;
    char buf[256];
    for (const Finding &f : res.findings) {
        std::snprintf(buf, sizeof(buf), "%s:%u:%u: warning: ",
                      f.path.c_str(), f.line, f.col);
        out += buf;
        out += f.message;
        out += " [" + f.ruleId + "]\n";
        if (!f.snippet.empty())
            out += "    " + f.snippet + "\n";
        if (!f.callPath.empty()) {
            out += "    call path:\n";
            for (size_t i = 0; i < f.callPath.size(); ++i)
                out += "      " + std::string(i * 2, ' ') +
                       (i == 0 ? "" : "-> ") + f.callPath[i] + "\n";
        }
    }
    std::snprintf(buf, sizeof(buf),
                  "minjie-lint: %zu finding%s in %llu files "
                  "(%llu inline-suppressed)\n",
                  res.findings.size(),
                  res.findings.size() == 1 ? "" : "s",
                  static_cast<unsigned long long>(res.filesScanned),
                  static_cast<unsigned long long>(res.suppressedInline));
    out += buf;
    return out;
}

std::string
renderJson(const EngineResult &res)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("files_scanned").value(res.filesScanned);
    jw.key("suppressed_inline").value(res.suppressedInline);
    jw.key("findings").beginArray();
    for (const Finding &f : res.findings) {
        jw.beginObject();
        jw.key("rule").value(f.ruleId);
        jw.key("path").value(f.path);
        jw.key("line").value(f.line);
        jw.key("col").value(f.col);
        jw.key("message").value(f.message);
        jw.key("snippet").value(f.snippet);
        if (!f.callPath.empty()) {
            jw.key("call_path").beginArray();
            for (const std::string &frame : f.callPath)
                jw.value(frame);
            jw.endArray();
        }
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    return jw.str();
}

std::string
renderSarif(const EngineResult &res)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("version").value("2.1.0");
    jw.key("$schema")
        .value("https://json.schemastore.org/sarif-2.1.0.json");
    jw.key("runs").beginArray();
    jw.beginObject();

    jw.key("tool").beginObject();
    jw.key("driver").beginObject();
    jw.key("name").value("minjie-lint");
    jw.key("informationUri")
        .value("README.md#static-analysis--sanitizers");
    jw.key("rules").beginArray();
    for (const RuleInfo &rule : ruleCatalog()) {
        jw.beginObject();
        jw.key("id").value(std::string(rule.id));
        jw.key("shortDescription").beginObject();
        jw.key("text").value(std::string(rule.summary));
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject(); // driver
    jw.endObject(); // tool

    jw.key("results").beginArray();
    for (const Finding &f : res.findings) {
        jw.beginObject();
        jw.key("ruleId").value(f.ruleId);
        jw.key("level").value("error");
        jw.key("message").beginObject();
        jw.key("text").value(f.message);
        jw.endObject();
        jw.key("locations").beginArray();
        jw.beginObject();
        jw.key("physicalLocation").beginObject();
        jw.key("artifactLocation").beginObject();
        jw.key("uri").value(f.path);
        jw.endObject();
        jw.key("region").beginObject();
        jw.key("startLine").value(f.line);
        jw.key("startColumn").value(f.col);
        jw.endObject();
        jw.endObject(); // physicalLocation
        jw.endObject();
        jw.endArray(); // locations
        // Graph-rule findings carry their call-path witness as a
        // SARIF codeFlow so viewers can step the chain.
        if (!f.callPath.empty()) {
            jw.key("codeFlows").beginArray();
            jw.beginObject();
            jw.key("threadFlows").beginArray();
            jw.beginObject();
            jw.key("locations").beginArray();
            for (const std::string &frame : f.callPath) {
                jw.beginObject();
                jw.key("location").beginObject();
                jw.key("message").beginObject();
                jw.key("text").value(frame);
                jw.endObject();
                jw.endObject();
                jw.endObject();
            }
            jw.endArray(); // locations
            jw.endObject();
            jw.endArray(); // threadFlows
            jw.endObject();
            jw.endArray(); // codeFlows
        }
        jw.endObject();
    }
    jw.endArray(); // results

    jw.endObject(); // run
    jw.endArray();  // runs
    jw.endObject();
    return jw.str();
}

} // namespace minjie::analysis
