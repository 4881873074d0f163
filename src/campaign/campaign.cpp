#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>
#include <thread>

#include "campaign/corpus.h"
#include "campaign/shrink.h"
#include "common/clock.h"
#include "common/jsonw.h"
#include "difftest/difftest.h"
#include "xiangshan/config.h"

namespace minjie::campaign {

namespace wl = minjie::workload;

namespace {

/** Seed scrambler so job planning draws are decorrelated from the
 *  program generator draws (both start from the campaign seed). */
constexpr uint64_t PLAN_SALT = 0x9e3779b97f4a7c15ULL;

/** Run @p prog under full DiffTest co-simulation; empty sig == clean. */
std::string
runDiffTestOnce(const wl::Program &prog, uint64_t maxCycles,
                const xs::ModelOpts &model, uint64_t *commits,
                std::string *detail, PerfSummary *perf = nullptr)
{
    xs::CoreConfig cc = xs::CoreConfig::nh();
    cc.model = model;
    xs::Soc soc(cc);
    difftest::DiffTest dt(soc);
    dt.loadProgram(prog);
    dt.run(maxCycles);
    if (commits)
        *commits = dt.stats().commitsChecked;
    if (perf) {
        const xs::PerfCounters &p = soc.core(0).perf();
        perf->valid = true;
        perf->cycles = p.cycles;
        perf->instrs = p.instrs;
        perf->branches = p.branches;
        perf->branchMispredicts = p.branchMispredicts;
        perf->tdRetiring = p.tdRetiring;
        perf->tdFrontend = p.tdFrontend;
        perf->tdBadSpec = p.tdBadSpec;
        perf->tdBackendMem = p.tdBackendMem;
        perf->tdBackendCore = p.tdBackendCore;
    }
    if (dt.ok())
        return "";
    if (detail)
        *detail = dt.failures().front();
    return dt.divergence().signature();
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
    wl::ShrinkableProgram sp = wl::randomShrinkable(rng, plan.spec);
    wl::Program prog = sp.assemble();

    JobResult jr;
    jr.seed = seed;
    if (plan.difftest) {
        jr.kind = "difftest";
        uint64_t commits = 0;
        std::string detail;
        jr.signature = runDiffTestOnce(prog, cfg.difftestMaxCycles,
                                       cfg.xsModel, &commits, &detail,
                                       cfg.perf ? &jr.perf : nullptr);
        jr.steps = commits;
        jr.failed = !jr.signature.empty();
        jr.detail = detail;
    } else {
        jr.kind = std::string(engineName(plan.a)) + "-vs-" +
                  engineName(plan.b);
        const BugInject *bug = cfg.bug.enabled ? &cfg.bug : nullptr;
        LockstepResult lr = runLockstep(plan.a, plan.b, prog,
                                        cfg.maxSteps, bug, cfg.lockstep);
        jr.steps = lr.steps;
        jr.failed = lr.div.diverged();
        if (jr.failed) {
            jr.signature = lr.div.signature();
            jr.detail = lr.div.describe();
        }
    }
    jr.sec = sw.elapsedSec();
    return jr;
}

CampaignReport
runCampaign(const CampaignConfig &cfg)
{
    CampaignReport rep;
    rep.jobs = cfg.seedCount;
    rep.results.resize(cfg.seedCount);
    rep.workers.resize(std::max(1u, cfg.workers));

    Stopwatch wall;
    std::atomic<uint64_t> next{0};

    auto workerFn = [&](unsigned wid) {
        for (;;) {
            uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= cfg.seedCount)
                break;
            JobResult jr = runJob(cfg, cfg.seedBase + i);
            jr.worker = wid;
            rep.workers[wid].busySec += jr.sec;
            ++rep.workers[wid].jobs;
            rep.results[i] = std::move(jr);
        }
    };

    if (cfg.workers <= 1) {
        workerFn(0);
    } else {
        std::vector<std::thread> pool;
        for (unsigned w = 0; w < cfg.workers; ++w)
            pool.emplace_back(workerFn, w);
        for (auto &t : pool)
            t.join();
    }
    rep.elapsedSec = wall.elapsedSec();

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

    // ---- shrink one representative per bucket (deterministic:
    // single-threaded, bucket order is first-failing-seed order) ----
    if (cfg.shrinkFailures) {
        for (auto &b : rep.buckets) {
            JobPlan plan = planJob(cfg, b.repSeed);
            Rng rng(b.repSeed);
            wl::ShrinkableProgram sp =
                wl::randomShrinkable(rng, plan.spec);

            SignatureFn sig;
            if (plan.difftest) {
                uint64_t cycles = cfg.difftestMaxCycles;
                xs::ModelOpts model = cfg.xsModel;
                sig = [cycles, model](const wl::Program &p) {
                    return runDiffTestOnce(p, cycles, model, nullptr,
                                           nullptr);
                };
            } else {
                const CampaignConfig *c = &cfg;
                Engine ea = plan.a, eb = plan.b;
                sig = [c, ea, eb](const wl::Program &p) {
                    const BugInject *bug =
                        c->bug.enabled ? &c->bug : nullptr;
                    LockstepResult lr = runLockstep(
                        ea, eb, p, c->maxSteps, bug, c->lockstep);
                    return lr.div.diverged() ? lr.div.signature()
                                             : std::string();
                };
            }

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

    bool anyPerf = false;
    for (const auto &jr : results)
        anyPerf = anyPerf || jr.perf.valid;
    if (anyPerf) {
        jw.key("perf_jobs").beginArray();
        for (const auto &jr : results) {
            if (!jr.perf.valid)
                continue;
            const PerfSummary &p = jr.perf;
            double ipc = p.cycles ? static_cast<double>(p.instrs) /
                                        static_cast<double>(p.cycles)
                                  : 0.0;
            jw.beginObject();
            jw.key("seed").value(jr.seed);
            jw.key("cycles").value(p.cycles);
            jw.key("instrs").value(p.instrs);
            jw.key("ipc").value(ipc);
            jw.key("branches").value(p.branches);
            jw.key("branch_mispredicts").value(p.branchMispredicts);
            jw.key("td_retiring").value(p.tdRetiring);
            jw.key("td_frontend").value(p.tdFrontend);
            jw.key("td_bad_speculation").value(p.tdBadSpec);
            jw.key("td_backend_memory").value(p.tdBackendMem);
            jw.key("td_backend_core").value(p.tdBackendCore);
            jw.endObject();
        }
        jw.endArray();
        // Aggregate view: the worker-count-invariant merged snapshot.
        obs::CounterSnapshot total = perfCounters();
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
    for (const auto &jr : results) {
        if (!jr.perf.valid)
            continue;
        const PerfSummary &p = jr.perf;
        obs::CounterSnapshot one;
        one.set("dut.jobs", 1);
        one.set("dut.cycles", p.cycles);
        one.set("dut.instrs", p.instrs);
        one.set("dut.branches", p.branches);
        one.set("dut.branch_mispredicts", p.branchMispredicts);
        one.set("dut.topdown.retiring", p.tdRetiring);
        one.set("dut.topdown.frontend", p.tdFrontend);
        one.set("dut.topdown.bad_speculation", p.tdBadSpec);
        one.set("dut.topdown.backend_memory", p.tdBackendMem);
        one.set("dut.topdown.backend_core", p.tdBackendCore);
        total.merge(one);
    }
    return total;
}

} // namespace minjie::campaign
