/**
 * Corpus round-trip tests: a minimized failure survives
 * serialize/deserialize byte-for-byte as the same job, and the full
 * campaign loop (catch -> bucket -> shrink -> write corpus -> read
 * back -> replay through checkJob) reproduces the recorded divergence
 * signature, for a lockstep pair and for the DiffTest DUT.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "campaign/campaign.h"
#include "campaign/corpus.h"
#include "workload/shrinkable.h"

namespace {

using namespace minjie;
using namespace minjie::campaign;
namespace wl = minjie::workload;
namespace fs = std::filesystem;

TEST(Corpus, EntryRoundTripsThroughText)
{
    // A DiffTest entry and a lockstep one come back as the same job.
    JobPlan difftest, lockstep;
    difftest.difftest = true;
    lockstep.a = Engine::Nemu;
    lockstep.b = Engine::Tci;
    for (const JobPlan &plan : {difftest, lockstep}) {
        Rng rng(77);
        wl::RandomSpec spec;
        spec.nInsts = 60;
        spec.withFp = !plan.difftest;
        CorpusEntry e;
        e.seed = 77;
        e.plan = plan;
        e.signature = "xreg:alu:sub";
        e.note = "round trip";
        e.program = wl::randomShrinkable(rng, spec);
        e.program.name = "corpus";

        const std::string text = e.serialize();
        EXPECT_EQ(text.find("minjie-corpus v2\n"), 0u);
        EXPECT_NE(text.find("\njob " + jobKind(plan) + "\n"),
                  std::string::npos);
        CorpusEntry back;
        ASSERT_TRUE(CorpusEntry::deserialize(text, back));
        EXPECT_EQ(back.seed, e.seed);
        EXPECT_EQ(back.plan.difftest, plan.difftest);
        EXPECT_EQ(jobKind(back.plan), jobKind(plan));
        EXPECT_EQ(back.signature, e.signature);
        EXPECT_EQ(back.note, e.note);

        // The program must reassemble to the identical memory image.
        wl::Program pa = e.program.assemble();
        wl::Program pb = back.program.assemble();
        ASSERT_EQ(pa.segments.size(), pb.segments.size());
        for (size_t i = 0; i < pa.segments.size(); ++i) {
            EXPECT_EQ(pa.segments[i].base, pb.segments[i].base);
            EXPECT_EQ(pa.segments[i].bytes, pb.segments[i].bytes);
        }
        EXPECT_EQ(pa.entry, pb.entry);
    }
}

/** @p e's text as header @p version, its `job` line replaced by
 *  @p job (any lines, or none). */
std::string
withJobLines(const CorpusEntry &e, const std::string &version,
             const std::string &job)
{
    std::string text = e.serialize();
    size_t at = text.find("job ");
    text.replace(at, text.find('\n', at) + 1 - at, job);
    return text.replace(0, text.find('\n'), "minjie-corpus " + version);
}

TEST(Corpus, JobLineReadsAsItsJobOrNotAtAll)
{
    CorpusEntry e;
    e.seed = 5;
    e.signature = "rd:alu:xor";
    Rng rng(5);
    e.program = wl::randomShrinkable(rng, {40, false, false});

    // A v1 pair is the same lockstep job as its v2 kind.
    CorpusEntry back;
    ASSERT_TRUE(CorpusEntry::deserialize(
        withJobLines(e, "v1", "pair spike tci\n"), back));
    EXPECT_FALSE(back.plan.difftest);
    EXPECT_EQ(back.plan.a, Engine::Spike);
    EXPECT_EQ(back.plan.b, Engine::Tci);
    EXPECT_EQ(back.signature, e.signature);
    ASSERT_TRUE(CorpusEntry::deserialize(
        withJobLines(e, "v2", "job spike-vs-tci\n"), back));
    EXPECT_EQ(jobKind(back.plan), "spike-vs-tci");

    for (const auto &[version, job] :
         std::vector<std::pair<std::string, std::string>>{
             {"v2", "job difftests\n"},
             {"v2", "job spike-vs-qemu\n"},
             {"v2", "job spike-tci\n"},
             {"v2", "job spike-vs-tci-vs-nemu\n"},
             {"v2", "job\n"},
             {"v2", ""},
             {"v2", "job difftest\njob spike-vs-tci\n"},
             {"v2", "pair spike tci\n"}, // a v1 line in a v2 entry
             {"v1", "job spike-vs-tci\n"},
             {"v1", "pair difftest\n"},
             {"v1", "pair spike\n"},
             {"v3", "job difftest\n"},
         }) {
        CorpusEntry r;
        EXPECT_FALSE(
            CorpusEntry::deserialize(withJobLines(e, version, job), r))
            << version << " " << job;
    }
}

TEST(Corpus, FileNameIsFilesystemSafe)
{
    CorpusEntry e;
    e.seed = 0xbeef;
    e.signature = "xreg:alu:xor";
    std::string n = e.fileName();
    EXPECT_EQ(n.find('/'), std::string::npos);
    EXPECT_EQ(n.find(':'), std::string::npos);
    EXPECT_NE(n.find(".mjc"), std::string::npos);
}

/** Run an injected-xor campaign with @p difftestPct % DiffTest jobs
 *  into a fresh corpus dir, and replay its one entry via checkJob. */
void
roundTripInjectedBug(unsigned difftestPct, const std::string &wantSig)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   ("mjc_corpus_" + std::to_string(difftestPct));
    fs::remove_all(dir);

    CampaignConfig cfg;
    cfg.seedBase = 1;
    cfg.seedCount = 20;
    cfg.workers = 2;
    cfg.nInsts = 200;
    cfg.difftestPct = difftestPct;
    cfg.bug.enabled = true;
    cfg.bug.op = isa::Op::Xor;
    cfg.bug.xorMask = 1;
    cfg.corpusDir = dir.string();
    CampaignReport rep = runCampaign(cfg);
    ASSERT_EQ(rep.buckets.size(), 1u);
    EXPECT_EQ(rep.buckets.front().signature, wantSig);
    ASSERT_FALSE(rep.buckets.front().corpusFile.empty());

    auto files = listCorpusFiles(dir.string());
    ASSERT_EQ(files.size(), 1u);

    CorpusEntry e;
    ASSERT_TRUE(readCorpusFile(files.front(), e));
    EXPECT_EQ(e.signature, wantSig);
    EXPECT_EQ(e.plan.difftest, difftestPct == 100);
    EXPECT_EQ(jobKind(e.plan),
              jobKind(planJob(cfg, rep.buckets.front().repSeed)));
    EXPECT_LE(e.program.bodyInsts(), 8u);

    wl::Program prog = e.program.assemble();
    // With the bug still injected the minimized program fails with the
    // recorded signature...
    JobResult bad = checkJob(cfg, e.plan, prog);
    ASSERT_TRUE(bad.failed);
    EXPECT_EQ(bad.signature, e.signature);
    // ...and on the real (fixed) engines it passes: the corpus guards
    // against the bug coming back.
    JobResult good = checkJob(CampaignConfig{}, e.plan, prog);
    EXPECT_FALSE(good.failed) << good.signature << ": " << good.detail;
}

TEST(Corpus, CampaignWritesReplayableMinimizedFailure)
{
    roundTripInjectedBug(0, "xreg:alu:xor");
}

TEST(Corpus, DutFailureReplaysAsDiffTest)
{
    roundTripInjectedBug(100, "rd:alu:xor:rd-check");
}

} // namespace
