/**
 * @file
 * Regression corpus: minimized failures persisted as replayable text
 * files. A corpus entry records the job that found the failure, the
 * divergence signature it once reproduced, and the full shrinkable
 * program; ctest replays every entry on each build so a fixed bug stays
 * fixed.
 *
 * A `.mjc` file (`minjie-corpus v2`) is a header of `tag value` lines
 * followed by the embedded `minjie-program v1` text:
 *
 *     minjie-corpus v2
 *     seed 0x1
 *     job difftest            (a JobResult::kind, e.g. spike-vs-tci)
 *     signature rd:alu:xor
 *     note shrunk from campaign seed
 *     program
 *     minjie-program v1 ...
 *
 * A v1 file names its job `pair A B` instead of `job A-vs-B`, and is
 * read as that lockstep job. Every entry replays as the job it names,
 * through the one checker the campaign uses:
 * `checkJob(CampaignConfig{}, e.plan, e.program.assemble())`.
 */

#ifndef MINJIE_CAMPAIGN_CORPUS_H
#define MINJIE_CAMPAIGN_CORPUS_H

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "workload/shrinkable.h"

namespace minjie::campaign {

/** One corpus file: header metadata plus the embedded program. */
struct CorpusEntry
{
    uint64_t seed = 0;          ///< campaign seed that found the failure
    JobPlan plan;               ///< its job kind (the spec is not stored)
    std::string signature;      ///< divergence this entry reproduced
    std::string note;           ///< free-form provenance
    workload::ShrinkableProgram program;

    std::string serialize() const;
    /** Parse v2 or v1 text. Unknown tags and job kinds, a missing job
     *  line and a malformed program are rejected. */
    static bool deserialize(const std::string &text, CorpusEntry &out);

    /** Filesystem-safe default file name (signature + seed). */
    std::string fileName() const;
};

/** Write @p entry under @p dir; returns the path ("" on failure). */
std::string writeCorpusFile(const std::string &dir,
                            const CorpusEntry &entry);

/** Load one corpus file; returns false on IO/parse failure. */
bool readCorpusFile(const std::string &path, CorpusEntry &out);

/** All *.mjc files under @p dir (sorted; empty when dir is missing). */
std::vector<std::string> listCorpusFiles(const std::string &dir);

} // namespace minjie::campaign

#endif // MINJIE_CAMPAIGN_CORPUS_H
