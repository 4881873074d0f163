#include "campaign/campaign.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>

#include "campaign/corpus.h"
#include "campaign/shrink.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/fork_pool.h"
#include "common/jsonw.h"
#include "difftest/difftest.h"
#include "obs/serialize.h"

namespace minjie::campaign {

namespace wl = minjie::workload;

namespace {

/** Seed scrambler so job planning draws are decorrelated from the
 *  program generator draws (both start from the campaign seed). */
constexpr uint64_t PLAN_SALT = 0x9e3779b97f4a7c15ULL;

constexpr uint64_t JOB_MAGIC = 0x4d4a4a4230303031ULL; // "MJJB0001"

/** The per-job DUT counters: `perf_jobs` JSON name, counter key, and
 *  the core counter copied. */
using PC = xs::PerfCounters;
constexpr struct
{
    const char *json, *key;
    uint64_t PC::*field;
} PERF_FIELDS[] = {
    {"cycles", "dut.cycles", &PC::cycles},
    {"instrs", "dut.instrs", &PC::instrs},
    {"branches", "dut.branches", &PC::branches},
    {"branch_mispredicts", "dut.branch_mispredicts", &PC::branchMispredicts},
    {"td_retiring", "dut.topdown.retiring", &PC::tdRetiring},
    {"td_frontend", "dut.topdown.frontend", &PC::tdFrontend},
    {"td_bad_speculation", "dut.topdown.bad_speculation", &PC::tdBadSpec},
    {"td_backend_memory", "dut.topdown.backend_memory", &PC::tdBackendMem},
    {"td_backend_core", "dut.topdown.backend_core", &PC::tdBackendCore},
};

std::string
jobKind(const JobPlan &plan)
{
    return plan.difftest ? "difftest"
                         : std::string(engineName(plan.a)) + "-vs-" +
                               engineName(plan.b);
}

/** Check @p prog the way @p plan says, for a job or a shrink step:
 *  everything of a JobResult but seed and host time. */
JobResult
check(const CampaignConfig &cfg, const JobPlan &plan, const wl::Program &prog)
{
    JobResult jr;
    jr.kind = jobKind(plan);
    if (!plan.difftest) {
        LockstepResult lr =
            runLockstep(plan.a, plan.b, prog, cfg.maxSteps,
                        cfg.bug.enabled ? &cfg.bug : nullptr);
        jr.steps = lr.steps;
        jr.failed = lr.div.diverged();
        jr.signature = jr.failed ? lr.div.signature() : "";
        jr.detail = jr.failed ? lr.div.describe() : "";
        return jr;
    }
    xs::Soc soc(xs::CoreConfig::nh());
    difftest::DiffTest dt(soc);
    dt.loadProgram(prog);
    dt.run(cfg.difftestMaxCycles);
    jr.steps = dt.stats().commitsChecked;
    if (cfg.perf) {
        jr.perf.set("dut.jobs", 1);
        for (const auto &f : PERF_FIELDS)
            jr.perf.set(f.key, soc.core(0).perf().*f.field);
    }
    jr.failed = !dt.ok();
    jr.signature = jr.failed ? dt.divergence().signature() : "";
    jr.detail = jr.failed ? dt.failures().front() : "";
    return jr;
}

} // namespace

JobPlan
planJob(const CampaignConfig &cfg, uint64_t seed)
{
    Rng r(seed ^ PLAN_SALT);
    JobPlan p;
    p.spec.nInsts = cfg.nInsts;
    p.spec.withFp = r.chance(cfg.fpPct);
    p.spec.withRvc = r.chance(cfg.rvcPct);
    p.difftest = r.chance(cfg.difftestPct);
    if (p.difftest) {
        // DiffTest jobs stay integer-only: the cycle-accurate DUT is
        // orders of magnitude slower, and fp/RVC coverage is carried by
        // the cheap engine-pair jobs.
        p.spec.withFp = false;
        p.spec.withRvc = false;
        return p;
    }
    if (!cfg.pairs.empty()) {
        auto pair = cfg.pairs[r.below(cfg.pairs.size())];
        p.a = pair.first;
        p.b = pair.second;
    }
    if (p.spec.withFp &&
        (p.a == Engine::Nemu || p.b == Engine::Nemu)) {
        // Nemu executes fp on the host FPU; bit-exact fp fuzzing runs
        // on the soft-float engines only.
        p.a = Engine::Spike;
        p.b = Engine::Dromajo;
    }
    return p;
}

JobResult
runJob(const CampaignConfig &cfg, uint64_t seed)
{
    Stopwatch sw;
    JobPlan plan = planJob(cfg, seed);
    Rng rng(seed);
    JobResult jr =
        check(cfg, plan, wl::randomShrinkable(rng, plan.spec).assemble());
    jr.seed = seed;
    jr.sec = sw.elapsedSec();
    return jr;
}

std::vector<uint8_t>
encodeJob(const JobResult &jr)
{
    std::vector<uint8_t> v;
    ByteWriter w(v);
    w.u64(JOB_MAGIC);
    w.u64(jr.seed);
    w.u8(jr.failed ? 1 : 0);
    w.str(jr.kind);
    w.str(jr.signature);
    w.str(jr.detail);
    w.u64(jr.steps);
    w.u64(std::bit_cast<uint64_t>(jr.sec));
    obs::writeCounters(w, jr.perf);
    return v;
}

bool
decodeJob(const std::vector<uint8_t> &blob, JobResult &jr)
{
    ByteReader in(blob);
    if (in.u64() != JOB_MAGIC)
        return false;
    JobResult out;
    out.seed = in.u64();
    out.failed = in.u8() != 0;
    out.kind = in.str();
    out.signature = in.str();
    out.detail = in.str();
    out.steps = in.u64();
    out.sec = std::bit_cast<double>(in.u64());
    if (!obs::readCounters(in, out.perf) || !in.done())
        return false;
    jr = std::move(out);
    return true;
}

CampaignReport
runCampaign(const CampaignConfig &cfg)
{
    CampaignReport rep;
    rep.jobs = cfg.seedCount;
    rep.results.resize(cfg.seedCount);
    rep.workers.resize(std::max(1u, cfg.workers));

    Stopwatch wall;
    auto blobs = runPool(cfg.seedCount, cfg.workers, [&](size_t i) {
        return encodeJob(runJob(cfg, cfg.seedBase + i));
    });
    rep.elapsedSec = wall.elapsedSec();
    for (size_t i = 0; i < blobs.size(); ++i) {
        JobResult &jr = rep.results[i];
        if (!blobs[i].ok || !decodeJob(blobs[i].bytes, jr)) {
            // Its worker died (or sent garbage): failed, of its planned kind.
            jr.seed = cfg.seedBase + i;
            jr.failed = true;
            jr.kind = jobKind(planJob(cfg, jr.seed));
            jr.signature = blobs[i].ok ? "crash:bad-blob"
                                       : describeWaitStatus(blobs[i].status);
            jr.detail = "worker process lost the job: " + jr.signature;
        }
        rep.workers[blobs[i].worker].busySec += jr.sec;
        ++rep.workers[blobs[i].worker].jobs;
    }

    // ---- bucket failures by signature, in seed order ----
    std::map<std::string, size_t> index;
    uint64_t totalSteps = 0;
    for (const auto &jr : rep.results) {
        totalSteps += jr.steps * (jr.kind == "difftest" ? 1 : 2);
        if (!jr.failed)
            continue;
        ++rep.failures;
        auto [it, fresh] =
            index.try_emplace(jr.signature, rep.buckets.size());
        if (fresh) {
            Bucket b;
            b.signature = jr.signature;
            b.repSeed = jr.seed;
            b.repDetail = jr.detail;
            rep.buckets.push_back(std::move(b));
        }
        rep.buckets[it->second].seeds.push_back(jr.seed);
    }

    rep.jobsPerSec =
        rep.elapsedSec > 0 ? static_cast<double>(rep.jobs) / rep.elapsedSec
                           : 0;
    rep.mips = rep.elapsedSec > 0
                   ? static_cast<double>(totalSteps) / rep.elapsedSec / 1e6
                   : 0;

    // ---- shrink one representative per bucket (deterministic: in
    // this process, bucket order is first-failing-seed order) ----
    if (cfg.shrinkFailures) {
        for (auto &b : rep.buckets) {
            // Rerunning a lost job could crash this process too.
            if (b.signature.starts_with("crash:") ||
                b.signature.starts_with("exit:"))
                continue;
            JobPlan plan = planJob(cfg, b.repSeed);
            Rng rng(b.repSeed);
            wl::ShrinkableProgram sp =
                wl::randomShrinkable(rng, plan.spec);
            SignatureFn sig = [&cfg, plan](const wl::Program &p) {
                return check(cfg, plan, p).signature;
            };
            ShrinkResult sr = shrinkProgram(sp, b.signature, sig);
            b.shrunkChunks =
                static_cast<unsigned>(sr.program.chunks.size());
            b.shrunkInsts = sr.program.bodyInsts();

            if (!cfg.corpusDir.empty()) {
                CorpusEntry entry;
                entry.seed = b.repSeed;
                entry.engineA = plan.a;
                entry.engineB = plan.b;
                entry.signature = b.signature;
                entry.note = "shrunk from campaign seed";
                entry.program = sr.program;
                entry.program.name = "corpus";
                b.corpusFile = writeCorpusFile(cfg.corpusDir, entry);
            }
        }
    }

    return rep;
}

std::string
CampaignReport::toJson() const
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("jobs").value(jobs);
    jw.key("failures").value(failures);
    jw.key("elapsed_sec").value(elapsedSec);
    jw.key("jobs_per_sec").value(jobsPerSec);
    jw.key("mips").value(mips);

    jw.key("buckets").beginArray();
    for (const auto &b : buckets) {
        jw.beginObject();
        jw.key("signature").value(b.signature);
        jw.key("count").value(static_cast<uint64_t>(b.seeds.size()));
        jw.key("rep_seed").value(b.repSeed);
        jw.key("rep_detail").value(b.repDetail);
        jw.key("shrunk_chunks").value(b.shrunkChunks);
        jw.key("shrunk_insts").value(b.shrunkInsts);
        if (!b.corpusFile.empty())
            jw.key("corpus_file").value(b.corpusFile);
        jw.key("seeds").beginArray();
        for (uint64_t s : b.seeds)
            jw.value(s);
        jw.endArray();
        jw.endObject();
    }
    jw.endArray();

    jw.key("workers").beginArray();
    for (const auto &w : workers) {
        jw.beginObject();
        jw.key("jobs").value(w.jobs);
        jw.key("busy_sec").value(w.busySec);
        jw.endObject();
    }
    jw.endArray();

    jw.key("kinds").beginArray();
    for (const auto &k : kindTimes()) {
        jw.beginObject();
        jw.key("kind").value(k.kind);
        jw.key("jobs").value(k.jobs);
        jw.key("host_sec").value(k.sec);
        jw.key("p50_us").value(k.p50Us);
        jw.key("p90_us").value(k.p90Us);
        jw.endObject();
    }
    jw.endArray();

    // Aggregate view: the worker-count-invariant merged snapshot.
    obs::CounterSnapshot total = perfCounters();
    if (!total.values.empty()) {
        jw.key("perf_jobs").beginArray();
        for (const auto &jr : results) {
            if (jr.perf.values.empty())
                continue;
            double cycles = static_cast<double>(jr.perf.get("dut.cycles"));
            jw.beginObject();
            jw.key("seed").value(jr.seed);
            for (const auto &f : PERF_FIELDS) {
                uint64_t v = jr.perf.get(f.key);
                jw.key(f.json).value(v);
                if (f.field == &PC::instrs) // ipc follows instrs
                    jw.key("ipc").value(
                        cycles > 0 ? static_cast<double>(v) / cycles : 0.0);
            }
            jw.endObject();
        }
        jw.endArray();
        jw.key("perf_total").beginObject();
        for (const auto &[k, v] : total.values)
            jw.key(k).value(v);
        jw.endObject();
    }

    jw.key("failing_jobs").beginArray();
    for (const auto &jr : results) {
        if (!jr.failed)
            continue;
        jw.beginObject();
        jw.key("seed").value(jr.seed);
        jw.key("kind").value(jr.kind);
        jw.key("signature").value(jr.signature);
        jw.key("detail").value(jr.detail);
        jw.endObject();
    }
    jw.endArray();

    jw.endObject();
    return jw.str();
}

std::vector<KindTime>
CampaignReport::kindTimes() const
{
    std::map<std::string, std::vector<double>> us;
    for (const auto &jr : results)
        us[jr.kind].push_back(jr.sec * 1e6);
    auto rank = [](const std::vector<double> &v, double p) {
        auto r = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(v.size())));
        return v[std::clamp<size_t>(r, 1, v.size()) - 1];
    };
    std::vector<KindTime> out;
    for (auto &[kind, v] : us) {
        std::sort(v.begin(), v.end());
        KindTime k;
        k.kind = kind;
        k.jobs = v.size();
        k.sec = std::accumulate(v.begin(), v.end(), 0.0) / 1e6;
        k.p50Us = rank(v, 50);
        k.p90Us = rank(v, 90);
        out.push_back(std::move(k));
    }
    return out;
}

obs::CounterSnapshot
CampaignReport::perfCounters() const
{
    obs::CounterSnapshot total;
    for (const auto &jr : results)
        total.merge(jr.perf);
    return total;
}

} // namespace minjie::campaign
