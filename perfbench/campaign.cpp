/**
 * @file
 * Workload `campaign`: a fuzz co-simulation campaign over a fixed seed
 * range of 300-instruction random programs, half of them DUT-vs-REF
 * DiffTest jobs, on min(4, nproc) threads.
 *
 * Each job is short, so per-job construction (program generation,
 * engine and SoC set-up) dominates rather than steady-state execution:
 * a change to per-job cost shows here and not in `cosim`, and a change
 * to the core's hot loop shows in `cosim` and barely here. The job mix
 * is pinned here instead of taken from CampaignConfig's defaults, so a
 * change of those defaults does not silently change the workload.
 */

#include "campaign/campaign.h"
#include "common.h"
#include "workload/shrinkable.h"

namespace perfbench {

using namespace minjie;
namespace wl = minjie::workload;

namespace {

constexpr uint64_t SEEDS = 2000;
constexpr uint64_t SEED_STRIDE = 1'000'000;
/** Jobs of each traced round run once more one at a time, for
 *  per-job host time by kind. */
constexpr uint64_t SERIAL_JOBS = 400;

campaign::CampaignConfig
makeConfig(uint64_t seed, unsigned workers)
{
    using campaign::Engine;
    campaign::CampaignConfig cfg;
    cfg.seedBase = 1 + seed * SEED_STRIDE;
    cfg.seedCount = SEEDS;
    cfg.workers = workers;
    cfg.nInsts = 300;
    cfg.maxSteps = 100'000;
    cfg.difftestMaxCycles = 2'000'000;
    cfg.fpPct = 25;
    cfg.rvcPct = 30;
    cfg.difftestPct = 50;
    cfg.pairs = {{Engine::Spike, Engine::Dromajo},
                 {Engine::Spike, Engine::Tci},
                 {Engine::Nemu, Engine::Spike},
                 {Engine::Nemu, Engine::Tci}};
    // Failures are counted, not minimized: shrinking is a debugging
    // step outside the measured flow.
    cfg.shrinkFailures = false;
    cfg.perf = true;
    return cfg;
}

wl::Program
generate(const campaign::CampaignConfig &cfg, uint64_t seed)
{
    campaign::JobPlan plan = campaign::planJob(cfg, seed);
    Rng rng(seed);
    return wl::randomShrinkable(rng, plan.spec).assemble();
}

} // namespace

Report
runCampaignFlow(const Options &opt, Tracer &tracer)
{
    Report rep;
    Tracer quiet(false);
    const auto cfg = makeConfig(opt.seed, opt.workers);
    std::vector<double> setupS, rate, busy, mips, tracedS, quietS;
    std::vector<double> genUs, lockstepUs, difftestUs;
    obs::CounterSnapshot first;

    forRounds(opt.seconds, [&](unsigned r) {
        Tracer &t = opt.trace ? tracer : quiet;
        resetPeakRss();
        {
            // The inputs of the seed range, built as each job builds
            // them (campaign jobs regenerate their own program).
            Span s(t, "setup");
            size_t segments = 0;
            for (uint64_t i = 0; i < cfg.seedCount; ++i)
                segments += generate(cfg, cfg.seedBase + i).segments.size();
            setupS.push_back(s.end());
            if (segments == 0)
                rep.fail("generator produced no programs");
        }

        campaign::CampaignReport cr;
        double sec;
        {
            Span s(t, "campaign.runCampaign");
            cr = campaign::runCampaign(cfg);
            sec = s.end();
        }
        rep.unitRssMib.push_back(peakRssMib());
        rate.push_back(static_cast<double>(cr.jobs) / sec);
        rep.attempted += cr.jobs;
        for (const auto &jr : cr.results)
            if (jr.failed)
                rep.fail("seed " + std::to_string(jr.seed) + " " +
                         jr.kind + ": " + jr.detail);
        obs::CounterSnapshot perf = cr.perfCounters();
        if (r == 0)
            first = perf;
        else
            rep.check(perf == first,
                      "DUT counters changed between rounds");
        if (!opt.trace)
            return;

        double busySec = 0;
        for (const auto &w : cr.workers)
            busySec += w.busySec;
        busy.push_back(100.0 * busySec /
                       (cr.elapsedSec *
                        static_cast<double>(cr.workers.size())));
        mips.push_back(cr.mips);
        tracedS.push_back(sec);
        {
            Span s(quiet, "campaign.runCampaign");
            campaign::runCampaign(cfg);
            quietS.push_back(s.end());
        }
        for (uint64_t i = 0; i < SERIAL_JOBS; ++i) {
            uint64_t seed = cfg.seedBase + i;
            uint64_t run = tracer.newRun("job/" + std::to_string(seed));
            bool difftest;
            {
                Span s(tracer, "campaign.planJob", run);
                difftest = campaign::planJob(cfg, seed).difftest;
            }
            {
                Span s(tracer, "workload.randomShrinkable", run);
                generate(cfg, seed);
                genUs.push_back(s.end() * 1e6);
            }
            Span s(tracer, difftest ? "campaign.runJob.difftest"
                                    : "campaign.runJob.lockstep",
                   run);
            campaign::runJob(cfg, seed);
            (difftest ? difftestUs : lockstepUs).push_back(s.end() * 1e6);
        }
    });

    double cycles = static_cast<double>(first.get("dut.cycles"));
    rep.e2e["work_per_s"] = {median(rate), "1/s"};
    rep.e2e["setup_s"] = {median(setupS), "s"};
    rep.sim["dut.ipc"] = rep.layer["dut.ipc"] = {
        cycles > 0 ? static_cast<double>(first.get("dut.instrs")) / cycles
                   : 0.0,
        "inst/cycle"};
    reportDut(rep, first, "dut", "");

    if (opt.trace) {
        rep.layer["campaign.lockstep.job_us_p50"] = {median(lockstepUs),
                                                     "us"};
        rep.layer["campaign.lockstep.job_us_p90"] = {
            percentile(lockstepUs, 90), "us"};
        rep.layer["campaign.difftest.job_us_p50"] = {median(difftestUs),
                                                     "us"};
        rep.layer["campaign.difftest.job_us_p90"] = {
            percentile(difftestUs, 90), "us"};
        rep.layer["workload.random_gen_us_p50"] = {median(genUs), "us"};
        rep.layer["campaign.worker_busy_pct"] = {median(busy), "%"};
        rep.layer["campaign.engine_mips"] = {median(mips), "MIPS"};
        double q = median(quietS);
        rep.layer["trace.overhead_pct"] = {
            100.0 * (median(tracedS) - q) / q, "%"};
    }
    return rep;
}

} // namespace perfbench
