/**
 * @file
 * Parallel fuzz co-simulation campaign engine (paper Section III-D's
 * "run as many simulation instances as the host allows" applied to
 * reference-model cross-checking).
 *
 * A campaign is a seed range [seedBase, seedBase + seedCount). Every
 * seed deterministically derives one job — a random program plus the
 * checker that runs it (an engine-pair lockstep run, or a full
 * NEMU-vs-XiangShan DiffTest co-simulation) — so the campaign outcome
 * is a pure function of the seed range: worker count only changes how
 * fast the range drains, never which failures are found or how they
 * bucket. Failures are grouped by first-divergence signature, one
 * representative per bucket is delta-debugged to a minimal reproducer,
 * and minimized failures can be persisted into the regression corpus.
 */

#ifndef MINJIE_CAMPAIGN_CAMPAIGN_H
#define MINJIE_CAMPAIGN_CAMPAIGN_H

#include <string>
#include <utility>
#include <vector>

#include "campaign/lockstep.h"
#include "obs/counter.h"
#include "workload/shrinkable.h"

namespace minjie::campaign {

/** Campaign parameters. Everything a seed maps to lives here. */
struct CampaignConfig
{
    uint64_t seedBase = 1;
    uint64_t seedCount = 100;
    unsigned workers = 1;       ///< worker processes (<= 1: in-process)
    unsigned nInsts = 300;      ///< body instructions per random program
    uint64_t maxSteps = 100'000; ///< lockstep instruction budget per job
    uint64_t difftestMaxCycles = 2'000'000;

    unsigned fpPct = 25;        ///< % of seeds generating fp programs
    unsigned rvcPct = 30;       ///< % of seeds mixing in RVC sequences
    unsigned difftestPct = 0;   ///< % of seeds run as DUT-vs-REF DiffTest

    /** Engine pairs cycled through by seed (fp seeds avoid Nemu, whose
     *  host-fp backend is cross-validated separately). */
    std::vector<std::pair<Engine, Engine>> pairs = {
        {Engine::Spike, Engine::Dromajo},
        {Engine::Spike, Engine::Tci},
        {Engine::Nemu, Engine::Spike},
        {Engine::Nemu, Engine::Tci},
    };

    BugInject bug;              ///< optional self-test corruption
    bool shrinkFailures = true; ///< delta-debug one rep per bucket
    std::string corpusDir;      ///< when set, write minimized failures
    bool perf = false;          ///< collect per-job DUT counters
};

/** What one seed runs: derived deterministically by planJob(). */
struct JobPlan
{
    bool difftest = false; ///< NEMU-vs-XiangShan DiffTest job
    Engine a = Engine::Spike; ///< lockstep pair; unused by DiffTest jobs
    Engine b = Engine::Dromajo;
    workload::RandomSpec spec;
};

/** Outcome of one job. A job whose worker died fails with its planned
 *  kind and signature `crash:SIG<NAME>` or `exit:<code>`, unshrunk. */
struct JobResult
{
    uint64_t seed = 0;
    bool failed = false;
    std::string kind;      ///< "spike-vs-tci", "difftest", ...
    std::string signature; ///< bucket key (empty when clean)
    std::string detail;    ///< human-readable first divergence
    uint64_t steps = 0;    ///< instructions checked (per engine)
    double sec = 0;        ///< host time of the whole job
    double genSec = 0;     ///< of which building its program
    /** DiffTest job under CampaignConfig::perf: its DUT counters
     *  ("dut.jobs" = 1, "dut.cycles", "dut.topdown.*"); else empty. */
    obs::CounterSnapshot perf;
};

/** Failures grouped by divergence signature. */
struct Bucket
{
    std::string signature;
    std::vector<uint64_t> seeds; ///< ascending
    uint64_t repSeed = 0;        ///< shrunk representative
    unsigned shrunkChunks = 0;
    unsigned shrunkInsts = 0;    ///< body instructions after shrinking
    std::string corpusFile;      ///< written corpus path (may be empty)
    std::string repDetail;
};

struct WorkerStats
{
    uint64_t jobs = 0;
    double busySec = 0;
};

/** Host time spent on one job kind ("difftest", "spike-vs-tci", ...). */
struct KindTime
{
    std::string kind;
    uint64_t jobs = 0;
    double sec = 0;   ///< summed host seconds of its jobs
    double p50Us = 0; ///< per-job host time percentiles (nearest rank)
    double p90Us = 0;
    double genP50Us = 0; ///< per-job program-build time, median
};

/** Full campaign outcome; toJson() is the machine-readable report. */
struct CampaignReport
{
    uint64_t jobs = 0;
    uint64_t failures = 0;
    double elapsedSec = 0;
    double jobsPerSec = 0;
    double mips = 0; ///< aggregate engine-instructions per second / 1e6
    std::vector<JobResult> results; ///< indexed by seed - seedBase
    std::vector<Bucket> buckets;    ///< ordered by first failing seed
    std::vector<WorkerStats> workers;

    std::string toJson() const;

    /**
     * Per-kind host time from every result's kind and sec, sorted by
     * kind. Host time varies from run to run, so it stays out of the
     * bucket table and the failing-job list.
     */
    std::vector<KindTime> kindTimes() const;

    /** Every job's DUT counters merged in seed order. merge() is a
     *  commutative sum, so any worker count gives the same bytes. */
    obs::CounterSnapshot perfCounters() const;
};

/** Derive the job for @p seed (pure function of config + seed). */
JobPlan planJob(const CampaignConfig &cfg, uint64_t seed);

/** The kind of @p plan's job ("difftest", "spike-vs-tci", ...): its
 *  JobResult::kind and its `.mjc` `job` line. */
std::string jobKind(const JobPlan &plan);

/** Inverse of jobKind(): set @p plan's kind (difftest, a, b) from
 *  @p kind. An unknown name returns false and leaves @p plan as it was. */
bool parseJobKind(const std::string &kind, JobPlan &plan);

/**
 * Check @p prog the way @p plan says: the one code path that runs a
 * program as a job, for campaign jobs, shrink steps and corpus replay.
 * Fills everything of a JobResult but seed and host time. A lockstep
 * job that runs out cfg.maxSteps, or a DiffTest job whose DUT does not
 * drain within cfg.difftestMaxCycles, fails as `timeout`. With cfg.bug
 * enabled, a lockstep job corrupts one engine and a DiffTest job the
 * DUT's first committed write of cfg.bug.op.
 */
JobResult checkJob(const CampaignConfig &cfg, const JobPlan &plan,
                   const workload::Program &prog);

/** Plan, build and check the job of @p seed (used by workers and
 *  tests). */
JobResult runJob(const CampaignConfig &cfg, uint64_t seed);

/** Run the whole campaign on cfg.workers pool processes. */
CampaignReport runCampaign(const CampaignConfig &cfg);

/** The pool blob of a job result (exposed for tests): every field,
 *  perf in the `.mjt` counter-map encoding. decodeJob rejects,
 *  with @p jr untouched, any blob that is not exactly one result. */
std::vector<uint8_t> encodeJob(const JobResult &jr);
bool decodeJob(const std::vector<uint8_t> &blob, JobResult &jr);

} // namespace minjie::campaign

#endif // MINJIE_CAMPAIGN_CAMPAIGN_H
