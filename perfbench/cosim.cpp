/**
 * @file
 * Workload `cosim`: four SPEC proxies, each run from reset on one NH
 * core under DiffTest with LightSSS snapshots every SSS_INTERVAL
 * cycles, on one thread — the `minjie-sim --engine xiangshan
 * --difftest --lightsss N` flow.
 *
 * The proxies cover where co-simulation time goes: 458.sjeng is
 * branchy (low IPC), 429.mcf memory-bound (long idle stretches the
 * core skips), 456.hmmer high-IPC (per-commit checking dominates) and
 * 470.lbm the fp path.
 *
 * The traced run adds two attribution runs of each program: DUT alone
 * (xiangshan host cost) and co-simulation without snapshots, so that
 * DiffTest cost = co-sim - DUT alone, and LightSSS overhead = co-sim
 * with snapshots - co-sim without.
 */

#include <memory>
#include <string>

#include "common.h"
#include "difftest/difftest.h"
#include "lightsss/lightsss.h"
#include "obs/collect.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace perfbench {

using namespace minjie;
namespace wl = minjie::workload;

namespace {

constexpr const char *PROGRAMS[] = {"458.sjeng", "429.mcf", "456.hmmer",
                                    "470.lbm"};
/** Layout seeds per proxy: the workload seed picks LAYOUTS body-group
 *  layouts of each proxy, so one run averages over several programs of
 *  each behaviour class instead of riding on one random draw. */
constexpr uint64_t LAYOUTS = 4;
constexpr uint64_t ITERS = 1000;
constexpr Cycle SSS_INTERVAL = 100'000;
constexpr Cycle MAX_CYCLES = 500'000'000;

enum class Mode { DutAlone, Cosim, CosimSss };

struct ProgRun
{
    bool ok = false;
    std::string why;
    uint64_t commits = 0;
    uint64_t instrs = 0;
    uint64_t cycles = 0;
    uint64_t skipped = 0;
    uint64_t forks = 0;
    double setupSec = 0;
    double runSec = 0;
    std::vector<double> forkUs; ///< traced forking tick() calls
    obs::CounterSnapshot counters;
};

const char *
loopSpanName(Mode mode)
{
    switch (mode) {
      case Mode::DutAlone: return "xiangshan.run";
      case Mode::Cosim: return "difftest.cosim";
      case Mode::CosimSss: return "cosim.run";
    }
    return "";
}

ProgRun
runProgram(const wl::ProxySpec &spec, uint64_t seed, Mode mode,
           Tracer &t, uint64_t run)
{
    ProgRun pr;
    Span setup(t, "setup", run);
    wl::Program prog;
    {
        Span s(t, "workload.buildProxy", run);
        prog = wl::buildProxy(spec, ITERS, seed);
    }
    xs::Soc soc(xs::CoreConfig::nh());
    prog.loadInto(soc.system().dram);
    soc.setEntry(prog.entry);
    std::unique_ptr<difftest::DiffTest> dt;
    if (mode != Mode::DutAlone) {
        Span s(t, "difftest.attach", run);
        dt = std::make_unique<difftest::DiffTest>(soc);
        for (const auto &seg : prog.segments)
            dt->loadRefMemory(seg.base, seg.bytes.data(),
                              seg.bytes.size());
        dt->resetRefs(prog.entry);
    }
    lightsss::LightSSS sss({SSS_INTERVAL, 2, mode == Mode::CosimSss});
    pr.setupSec = setup.end();

    // The drive loop of minjie-sim's xiangshan engine. Only tick()
    // calls that are due to fork get a span, so tracing adds no
    // per-cycle cost.
    Span loop(t, loopSpanName(mode), run);
    xs::Core &core = soc.core(0);
    Cycle cycle = 0;
    Cycle lastFork = 0;
    bool done = false;
    while (cycle < MAX_CYCLES) {
        if (mode == Mode::CosimSss) {
            if (t.on() && (cycle == 0 || cycle - lastFork >= SSS_INTERVAL)) {
                uint64_t before = sss.stats().forks;
                Span tick(t, "lightsss.tick", run);
                sss.tick(cycle);
                double sec = tick.end();
                if (sss.stats().forks != before) {
                    pr.forkUs.push_back(sec * 1e6);
                    lastFork = cycle;
                }
            } else {
                sss.tick(cycle);
            }
        }
        soc.system().clint.tick();
        if (core.done()) {
            done = true;
            break;
        }
        Cycle consumed = core.tick(MAX_CYCLES - cycle);
        cycle += consumed;
        if (consumed > 1)
            soc.system().clint.tick(consumed - 1);
        if (dt && !dt->ok())
            break;
    }
    pr.runSec = loop.end();
    {
        Span s(t, "lightsss.discardAll", run);
        sss.discardAll();
    }

    const auto &p = core.perf();
    pr.instrs = p.instrs;
    pr.cycles = p.cycles;
    pr.skipped = core.skippedCycles();
    pr.forks = sss.stats().forks;
    pr.commits = dt ? dt->stats().commitsChecked : p.instrs;
    const auto &ctrl = soc.system().simctrl;
    if (dt && !dt->ok())
        pr.why = "DiffTest mismatch: " + dt->failures().front();
    else if (!done)
        pr.why = "did not finish within the cycle budget";
    else if (!ctrl.exited() || ctrl.exitCode() != 0)
        pr.why = "exit code " + std::to_string(ctrl.exitCode());
    pr.ok = pr.why.empty();

    obs::CounterGroup root;
    obs::collectSoc(root, soc);
    pr.counters = root.snapshot();
    return pr;
}

/** One pass over every program in one mode. */
struct Round
{
    std::vector<ProgRun> runs;
    double runSec = 0;
    uint64_t commits = 0;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
};

Round
runRound(uint64_t seed, Mode mode, Tracer &t, Report *rep)
{
    Round rd;
    for (const char *name : PROGRAMS) {
        for (uint64_t l = 0; l < LAYOUTS; ++l) {
            uint64_t layout = seed * LAYOUTS + l;
            std::string label =
                std::string(name) + "#" + std::to_string(layout);
            uint64_t run = t.newRun("cosim/" + label);
            Span s(t, "cosim.program", run);
            resetPeakRss();
            ProgRun pr = runProgram(findProxy(name), layout, mode, t, run);
            if (rep) {
                rep->check(pr.ok, label + ": " + pr.why);
                rep->unitRssMib.push_back(peakRssMib());
            }
            rd.runSec += pr.runSec;
            rd.commits += pr.commits;
            rd.cycles += pr.cycles;
            rd.instrs += pr.instrs;
            rd.runs.push_back(std::move(pr));
        }
    }
    return rd;
}

} // namespace

Report
runCosim(const Options &opt, Tracer &tracer)
{
    Report rep;
    Tracer quiet(false);
    // Per program: set-up and co-simulation seconds of every round.
    std::vector<std::vector<double>> setupS, runS;
    uint64_t commits = 0;
    // Traced-run series, one value per round.
    std::vector<double> tracedSec, quietSec, dtNs, sssPct, forks, forkUs,
        dutMips, nsPerCycle, skipPct;
    std::vector<std::vector<double>> progRate(std::size(PROGRAMS));
    obs::CounterSnapshot firstCounters;
    std::vector<double> ipcs;

    forRounds(opt.seconds, [&](unsigned r) {
        Round main = runRound(opt.seed, Mode::CosimSss,
                              opt.trace ? tracer : quiet, &rep);
        setupS.resize(main.runs.size());
        runS.resize(main.runs.size());
        for (size_t i = 0; i < main.runs.size(); ++i) {
            setupS[i].push_back(main.runs[i].setupSec);
            runS[i].push_back(main.runs[i].runSec);
        }
        commits = main.commits;

        // Simulated results are a pure function of the seed: the first
        // round defines them and every later round must match.
        obs::CounterSnapshot merged;
        for (const auto &pr : main.runs)
            merged.merge(pr.counters);
        if (r == 0) {
            firstCounters = merged;
            for (const auto &pr : main.runs)
                ipcs.push_back(static_cast<double>(pr.instrs) /
                               static_cast<double>(pr.cycles));
        } else {
            rep.check(merged == firstCounters,
                      "simulated counters changed between rounds");
        }
        if (!opt.trace)
            return;

        Round cosim = runRound(opt.seed, Mode::Cosim, tracer, nullptr);
        Round dut = runRound(opt.seed, Mode::DutAlone, tracer, nullptr);
        Round plain = runRound(opt.seed, Mode::CosimSss, quiet, nullptr);
        tracedSec.push_back(main.runSec);
        quietSec.push_back(plain.runSec);
        dtNs.push_back((cosim.runSec - dut.runSec) * 1e9 /
                       static_cast<double>(cosim.commits));
        sssPct.push_back(100.0 * (plain.runSec - cosim.runSec) /
                         cosim.runSec);
        dutMips.push_back(static_cast<double>(dut.instrs) / dut.runSec /
                          1e6);
        nsPerCycle.push_back(dut.runSec * 1e9 /
                             static_cast<double>(dut.cycles));
        uint64_t nForks = 0, skipped = 0;
        for (size_t p = 0; p < std::size(PROGRAMS); ++p) {
            double progCommits = 0, sec = 0;
            for (size_t l = 0; l < LAYOUTS; ++l) {
                const ProgRun &pr = main.runs[p * LAYOUTS + l];
                progCommits += static_cast<double>(pr.commits);
                sec += pr.runSec;
                nForks += pr.forks;
                forkUs.insert(forkUs.end(), pr.forkUs.begin(),
                              pr.forkUs.end());
                skipped += dut.runs[p * LAYOUTS + l].skipped;
            }
            progRate[p].push_back(progCommits / sec);
        }
        forks.push_back(static_cast<double>(nForks));
        skipPct.push_back(100.0 * static_cast<double>(skipped) /
                          static_cast<double>(dut.cycles));
    });

    rep.e2e["work_per_s"] = {
        static_cast<double>(commits) / sumOfMedians(runS), "1/s"};
    rep.e2e["setup_s"] = {sumOfMedians(setupS), "s"};
    rep.sim["dut.ipc"] = rep.layer["dut.ipc"] = {geomean(ipcs),
                                                 "inst/cycle"};
    reportDut(rep, firstCounters, "core0", "mem");

    if (opt.trace) {
        rep.layer["xiangshan.dut_mips"] = {median(dutMips), "MIPS"};
        rep.layer["xiangshan.host_ns_per_cycle"] = {median(nsPerCycle),
                                                    "ns"};
        rep.layer["xiangshan.skip_pct"] = {median(skipPct), "%"};
        rep.layer["difftest.ns_per_commit"] = {median(dtNs), "ns"};
        rep.layer["lightsss.forks"] = {median(forks), "count"};
        rep.layer["lightsss.fork_us_p50"] = {median(forkUs), "us"};
        rep.layer["lightsss.overhead_pct"] = {median(sssPct), "%"};
        for (size_t i = 0; i < std::size(PROGRAMS); ++i)
            rep.layer[std::string("cosim.") + PROGRAMS[i] +
                      ".commits_per_s"] = {median(progRate[i]), "1/s"};
        double q = median(quietSec);
        rep.layer["trace.overhead_pct"] = {
            100.0 * (median(tracedSec) - q) / q, "%"};
    }
    return rep;
}

} // namespace perfbench
