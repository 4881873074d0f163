/**
 * @file
 * Workload `sampled`: the paper's Section III-D3 flow for three proxies
 * — BBV profile and checkpoint generation on NEMU, `.mjk` pack build,
 * pack open, and slice evaluation on the detailed core across forked
 * workers. Unlike `cosim`, the core model runs in many short windows
 * that start cold after a restore, and the checkpoint and sample
 * layers carry most of the time.
 *
 * Accuracy is measured only against this repository's own full
 * detailed run of the same instruction range; no hardware reference
 * exists, so the model itself is unvalidated. The reference run and
 * the serial reduction used as the worker-count oracle run outside
 * the timed flow.
 */

#include <cmath>
#include <string>

#include "checkpoint/generator.h"
#include "common.h"
#include "sample/engine.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace perfbench {

using namespace minjie;
namespace wl = minjie::workload;

namespace {

constexpr const char *PROGRAMS[] = {"401.bzip2", "429.mcf", "470.lbm"};
/** Layout seeds per proxy (see cosim.cpp): each run evaluates
 *  LAYOUTS programs of every proxy. */
constexpr uint64_t LAYOUTS = 3;
/** Outer-loop trips far beyond the profiled range: the flow sees a
 *  steady program, cut at BUDGET instructions. */
constexpr uint64_t ITERS = 10'000'000;
constexpr InstCount BUDGET = 400'000;
constexpr InstCount INTERVAL = 40'000;
constexpr unsigned MAX_K = 8;
/** Each slice measures its whole SimPoint interval, from cold. */
constexpr uint64_t MEASURE = INTERVAL;
constexpr Cycle FULL_RUN_MAX_CYCLES = 400'000'000;

/** Per-program results of one pass of the flow. */
struct Flow
{
    double flowSec = 0;
    double genSec = 0;
    double packSec = 0;
    double openSec = 0;
    double runSec = 0;
    double sliceSec = 0; ///< serial runSlice total (traced only)
    std::vector<double> slices;
    InstCount totalInsts = 0;
    double profileMips = 0;
    double generateMips = 0;
    size_t checkpoints = 0;
    size_t packBytes = 0;
    size_t poolPages = 0;
    bool opened = false;
    sample::SampleReport rep;
};

sample::SampleConfig
sliceConfig(unsigned workers)
{
    sample::SampleConfig cfg;
    cfg.workers = workers;
    cfg.warmupInsts = 0;
    cfg.measureInsts = MEASURE;
    return cfg;
}

Flow
runFlow(const wl::Program &prog, unsigned workers, bool perSlice,
        Tracer &t, uint64_t run, sample::PackReader &pack)
{
    Flow f;
    Span flow(t, "sample.flow", run);
    std::vector<uint8_t> bytes;
    {
        // Like minjie-sim, drop the checkpoint images once packed.
        checkpoint::GenResult gen;
        {
            Span s(t, "checkpoint.generateCheckpoints", run);
            gen = checkpoint::generateCheckpoints(prog, INTERVAL, MAX_K,
                                                  BUDGET);
            f.genSec = s.end();
        }
        f.totalInsts = gen.totalInsts;
        f.profileMips = gen.profileMips;
        f.generateMips = gen.generateMips;
        f.checkpoints = gen.checkpoints.size();
        Span s(t, "sample.packFromGen", run);
        bytes = sample::packFromGen(gen);
        f.packSec = s.end();
    }
    {
        Span s(t, "sample.PackReader.openMemory", run);
        f.opened = pack.openMemory(std::move(bytes));
        f.openSec = s.end();
    }
    {
        Span s(t, "sample.runSampled", run);
        f.rep = sample::runSampled(pack, sliceConfig(workers));
        f.runSec = s.end();
    }
    f.flowSec = flow.end();
    f.packBytes = pack.sizeBytes();
    f.poolPages = pack.poolPages();

    if (perSlice) {
        // The same slices one at a time in this process, for per-slice
        // host time (the forked workers are not visible from here).
        auto cfg = sliceConfig(1);
        for (size_t i = 0; i < pack.count(); ++i) {
            uint64_t slice =
                t.newRun("slice/" + std::to_string(run) + "/" +
                         std::to_string(i));
            Span s(t, "sample.runSlice", slice);
            sample::runSlice(pack, i, cfg);
            f.slices.push_back(s.end());
            f.sliceSec += f.slices.back();
        }
    }
    return f;
}

/** IPC of the full detailed run over the first @p insts instructions. */
double
fullRunIpc(const wl::Program &prog, InstCount insts)
{
    xs::Soc soc(xs::CoreConfig::nh());
    prog.loadInto(soc.system().dram);
    soc.setEntry(prog.entry);
    soc.runUntilInstrs(insts, FULL_RUN_MAX_CYCLES);
    return soc.core(0).perf().ipc();
}

bool
sameReduction(const sample::SampleReport &a, const sample::SampleReport &b)
{
    return a.weighted == b.weighted && a.weightedCycles == b.weightedCycles &&
           a.weightedInstrs == b.weightedInstrs && a.weightDen == b.weightDen;
}

} // namespace

Report
runSampledFlow(const Options &opt, Tracer &tracer)
{
    Report rep;
    Tracer quiet(false);
    const size_t n = std::size(PROGRAMS) * LAYOUTS;
    // Per flow: set-up and flow seconds of every round.
    std::vector<std::vector<double>> setupS(n), flowS(n);
    std::vector<size_t> slicesOf(n);
    std::vector<double> wall, genS, packS, openS, runS, eff, slices, quietS,
        mips1, mips2;
    // Round-0 reductions of the measured flows and their serial oracle.
    std::vector<sample::SampleReport> first(n), serial(n);
    std::vector<double> fullIpc(n), fullSec(n);
    size_t checkpoints = 0, packBytes = 0, poolPages = 0;
    unsigned failedSlices = 0;

    forRounds(opt.seconds, [&](unsigned r) {
        double flowSec = 0, gen = 0, pack = 0, open = 0,
               run = 0, slice = 0, quietSec = 0;
        checkpoints = packBytes = poolPages = 0;
        for (size_t p = 0; p < n; ++p) {
            uint64_t layout = opt.seed * LAYOUTS + p % LAYOUTS;
            std::string name = std::string(PROGRAMS[p / LAYOUTS]) + "#" +
                               std::to_string(layout);
            uint64_t id = tracer.newRun("sampled/" + name);
            Tracer &t = opt.trace ? tracer : quiet;
            resetPeakRss();
            wl::Program prog;
            {
                Span s(t, "workload.buildProxy", id);
                prog = wl::buildProxy(findProxy(PROGRAMS[p / LAYOUTS]),
                                      ITERS, layout);
                setupS[p].push_back(s.end());
            }
            sample::PackReader packReader;
            Flow f = runFlow(prog, opt.workers, opt.trace, t, id,
                             packReader);
            rep.unitRssMib.push_back(peakRssMib());
            flowS[p].push_back(f.flowSec);
            slicesOf[p] = f.checkpoints;
            flowSec += f.flowSec;
            gen += f.genSec;
            pack += f.packSec;
            open += f.openSec;
            run += f.runSec;
            slice += f.sliceSec;
            slices.insert(slices.end(), f.slices.begin(), f.slices.end());
            mips1.push_back(f.profileMips);
            mips2.push_back(f.generateMips);
            checkpoints += f.checkpoints;
            packBytes += f.packBytes;
            poolPages += f.poolPages;
            failedSlices += f.rep.failures;

            if (r == 0) {
                // Oracles, outside the timed flow: the serial
                // reduction and the full detailed run.
                Span s(t, "sample.fullRun", id);
                fullIpc[p] = fullRunIpc(prog, f.totalInsts);
                fullSec[p] = s.end();
                serial[p] = sample::runSampled(packReader, sliceConfig(1));
                first[p] = f.rep;
            }
            rep.check(f.opened && f.rep.allOk() &&
                          f.rep.stack.sumsExactly() &&
                          sameReduction(f.rep, serial[p]),
                      name + ": bad pack, failed slice, inexact top-down "
                             "sum, or serial and parallel reductions differ");

            if (opt.trace) {
                sample::PackReader again;
                quietSec += runFlow(prog, opt.workers, false, quiet, 0,
                                    again).flowSec;
            }
        }
        wall.push_back(flowSec);
        genS.push_back(gen);
        packS.push_back(pack);
        openS.push_back(open);
        runS.push_back(run);
        eff.push_back(slice / (run * opt.workers));
        quietS.push_back(quietSec);
    });

    std::vector<double> ipcs;
    double errSum = 0;
    obs::CounterSnapshot merged;
    for (size_t p = 0; p < n; ++p) {
        ipcs.push_back(first[p].weightedIpc());
        errSum += 100.0 * std::fabs(first[p].weightedIpc() - fullIpc[p]) /
                  fullIpc[p];
        merged.merge(first[p].weighted);
    }
    // Slices per second of each flow, geomean over flows: a flow's time
    // grows with the slices SimPoint picks for it, so the ratio holds
    // steady across seeds where a plain total would not.
    std::vector<double> flowRate;
    for (size_t p = 0; p < n; ++p)
        flowRate.push_back(static_cast<double>(slicesOf[p]) /
                           median(flowS[p]));
    rep.e2e["work_per_s"] = {geomean(flowRate), "1/s"};
    rep.e2e["setup_s"] = {sumOfMedians(setupS), "s"};
    rep.sim["dut.ipc"] = rep.layer["dut.ipc"] = {geomean(ipcs),
                                                 "inst/cycle"};
    double err = errSum / static_cast<double>(n);
    rep.sim["sample.ipc_err_pct"] = {err, "%"};
    rep.layer["sample.ipc_err_pct"] = {err, "%"};
    reportDut(rep, merged, "core0", "mem");

    if (opt.trace) {
        rep.layer["sample.wall_s"] = {median(wall), "s"};
        rep.layer["checkpoint.generate_s"] = {median(genS), "s"};
        rep.layer["checkpoint.profile_mips"] = {median(mips1), "MIPS"};
        rep.layer["checkpoint.generate_mips"] = {median(mips2), "MIPS"};
        rep.layer["checkpoint.count"] = {
            static_cast<double>(checkpoints), "count"};
        rep.layer["sample.pack_build_s"] = {median(packS), "s"};
        rep.layer["sample.pack_open_s"] = {median(openS), "s"};
        rep.layer["sample.pack_mb"] = {
            static_cast<double>(packBytes) / (1024.0 * 1024.0), "MiB"};
        rep.layer["sample.pool_pages"] = {static_cast<double>(poolPages),
                                          "count"};
        rep.layer["sample.run_s"] = {median(runS), "s"};
        rep.layer["sample.slice_s_p50"] = {median(slices), "s"};
        rep.layer["sample.slice_s_max"] = {percentile(slices, 100), "s"};
        rep.layer["sample.parallel_eff"] = {median(eff), "ratio"};
        rep.layer["sample.failed_slices"] = {
            static_cast<double>(failedSlices), "count"};
        double full = 0;
        for (double s : fullSec)
            full += s;
        rep.layer["sample.full_run_s"] = {full, "s"};
        double q = median(quietS);
        rep.layer["trace.overhead_pct"] = {
            100.0 * (median(wall) - q) / q, "%"};
    }
    return rep;
}

} // namespace perfbench
