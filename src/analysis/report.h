/**
 * @file
 * Report renderers for lint results: human (compiler-style lines),
 * JSON (campaign-tooling-friendly, same JsonWriter as the campaign
 * reports), and SARIF 2.1.0 (CI code-scanning upload).
 */

#ifndef MINJIE_ANALYSIS_REPORT_H
#define MINJIE_ANALYSIS_REPORT_H

#include <string>

#include "analysis/engine.h"

namespace minjie::analysis {

/** `path:line:col: warning: message [rule-id]` plus a summary line. */
std::string renderHuman(const EngineResult &res);

/** Compact JSON: findings array + counters. */
std::string renderJson(const EngineResult &res);

/** SARIF 2.1.0 with rule metadata from the rule catalog. */
std::string renderSarif(const EngineResult &res);

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_REPORT_H
