/**
 * @file
 * minjie-sim: the command-line front door of the platform.
 *
 *   minjie-sim --engine nemu --workload coremark --iters 2000
 *   minjie-sim --engine xiangshan --config nh --workload 458.sjeng \
 *              --difftest --lightsss 100000
 *   minjie-sim --list
 *
 * Runs one workload on one engine, optionally under DiffTest
 * co-simulation with LightSSS snapshots, and prints a performance and
 * verification summary — the single-run analogue of the paper's
 * "launch the RTL-simulation and the tools are automatically invoked"
 * workflow (Section III-E).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "checkpoint/generator.h"
#include "common/clock.h"
#include "difftest/difftest.h"
#include "iss/interp.h"
#include "iss/system.h"
#include "lightsss/lightsss.h"
#include "nemu/nemu.h"
#include "sample/engine.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

using namespace minjie;
namespace wl = minjie::workload;

namespace {

struct Options
{
    std::string engine = "nemu"; // nemu|spike|dromajo|tci|xiangshan
    std::string config = "nh";   // nh|yqh|gem5ish (xiangshan only)
    std::string workload = "coremark";
    uint64_t iters = 1000;
    InstCount maxInstrs = 50'000'000;
    bool difftest = false;
    Cycle lightsssInterval = 0;
    uint64_t faultAfter = 0; // inject a load fault (difftest demo)
    xs::ModelOpts model;     // --xs-no-* fast-path ablations

    // Sampled simulation (--sample): SimPoint checkpoints evaluated
    // across forked workers instead of one full detailed run.
    bool sample = false;
    unsigned workers = 1;
    uint64_t warmup = 0;
    uint64_t measure = 20'000;
    uint64_t interval = 50'000;
    unsigned maxK = 4;
    std::string packOut; // write the .mjk pack here
    std::string packIn;  // evaluate an existing pack (skips profiling)
};

void
usage()
{
    std::printf(
        "minjie-sim [options]\n"
        "  --engine E     nemu|spike|dromajo|tci|xiangshan (default nemu)\n"
        "  --config C     nh|yqh|gem5ish (xiangshan engine only)\n"
        "  --workload W   coremark|memstress|sum|sv39|<SPEC proxy name>\n"
        "  --iters N      workload iterations (default 1000)\n"
        "  --max-instrs N instruction budget (default 50M)\n"
        "  --difftest     co-simulate against a NEMU REF (xiangshan)\n"
        "  --lightsss N   fork a snapshot every N cycles (xiangshan)\n"
        "  --inject-fault corrupt one load (exercises the checkers)\n"
        "  --xs-no-bitset reference scan-based scheduling (xiangshan)\n"
        "  --xs-no-skip   disable event-driven idle-cycle skipping\n"
        "  --xs-no-batch  per-instruction commit probe delivery\n"
        "  --sample       SimPoint sampled evaluation (fork-fanout)\n"
        "  --workers N    forked slice workers (default 1)\n"
        "  --warmup M     functional-warmup instructions per slice\n"
        "  --measure N    detailed window per slice (default 20000)\n"
        "  --interval N   SimPoint interval length (default 50000)\n"
        "  --max-k K      max SimPoint clusters (default 4)\n"
        "  --pack-out F   write the .mjk checkpoint pack to F\n"
        "  --pack-in F    evaluate an existing .mjk pack\n"
        "  --list         list available workloads\n");
}

wl::Program
pickWorkload(const Options &opt, bool &ok)
{
    ok = true;
    if (opt.workload == "coremark")
        return wl::coremarkProxy(opt.iters);
    if (opt.workload == "memstress")
        return wl::memStressProgram(opt.iters, 16);
    if (opt.workload == "sum")
        return wl::sumProgram(opt.iters);
    if (opt.workload == "sv39")
        return wl::sv39Program();
    for (const auto &s : wl::specIntSuite())
        if (opt.workload == s.name)
            return wl::buildProxy(s, opt.iters);
    for (const auto &s : wl::specFpSuite())
        if (opt.workload == s.name)
            return wl::buildProxy(s, opt.iters);
    ok = false;
    return {};
}

int
runInterpreter(const Options &opt, const wl::Program &prog)
{
    iss::System sys(256);
    prog.loadInto(sys.dram);

    std::unique_ptr<iss::Interp> engine;
    if (opt.engine == "nemu")
        engine = std::make_unique<nemu::Nemu>(sys.bus, sys.dram, 0,
                                              prog.entry);
    else if (opt.engine == "spike")
        engine = std::make_unique<iss::SpikeInterp>(sys.bus, 0,
                                                    prog.entry);
    else if (opt.engine == "dromajo")
        engine = std::make_unique<iss::DromajoInterp>(sys.bus, 0,
                                                      prog.entry);
    else
        engine = std::make_unique<iss::TciInterp>(sys.bus, 0, prog.entry);
    engine->setHaltFn([&] { return sys.simctrl.exited(); });

    Stopwatch sw;
    iss::RunResult r;
    if (auto *nemu = dynamic_cast<nemu::Nemu *>(engine.get()))
        r = nemu->run(opt.maxInstrs);
    else
        r = engine->run(opt.maxInstrs);
    double sec = sw.elapsedSec();

    std::printf("[%s] %llu instructions in %.3fs (%.1f MIPS)%s\n",
                opt.engine.c_str(),
                static_cast<unsigned long long>(r.executed), sec,
                sec > 0 ? static_cast<double>(r.executed) / sec / 1e6
                        : 0.0,
                r.halted ? "" : " [budget reached]");
    if (sys.simctrl.exited())
        std::printf("workload exit code: %llu\n",
                    static_cast<unsigned long long>(
                        sys.simctrl.exitCode()));
    return 0;
}

int
runXiangshan(const Options &opt, const wl::Program &prog)
{
    xs::CoreConfig cfg = opt.config == "yqh" ? xs::CoreConfig::yqh()
                         : opt.config == "gem5ish"
                             ? xs::CoreConfig::gem5ish()
                             : xs::CoreConfig::nh();
    cfg.model = opt.model;
    xs::Soc soc(cfg);
    prog.loadInto(soc.system().dram);
    soc.setEntry(prog.entry);

    std::unique_ptr<difftest::DiffTest> dt;
    if (opt.difftest) {
        dt = std::make_unique<difftest::DiffTest>(soc);
        for (const auto &seg : prog.segments)
            dt->loadRefMemory(seg.base, seg.bytes.data(),
                              seg.bytes.size());
        dt->resetRefs(prog.entry);
    }
    if (opt.faultAfter)
        soc.core(0).injectLoadFault(0x1000);

    lightsss::LightSSS sss(
        {opt.lightsssInterval ? opt.lightsssInterval : 1, 2,
         opt.lightsssInterval != 0});

    Stopwatch sw;
    Cycle cycle = 0;
    const Cycle maxCycles = 2'000'000'000;
    while (cycle < maxCycles &&
           soc.core(0).perf().instrs < opt.maxInstrs) {
        if (opt.lightsssInterval) {
            auto role = sss.tick(cycle);
            if (role == lightsss::LightSSS::Role::ReplayChild) {
                Logger::instance().setLevel(LogLevel::Debug);
                std::printf("[lightsss] replay child running to cycle "
                            "%llu\n",
                            static_cast<unsigned long long>(
                                sss.replayTargetCycle()));
            }
        }
        soc.system().clint.tick();
        bool allDone = true;
        Cycle consumed = 1;
        // LightSSS snapshots fork at loop-visible cycles only; with
        // skip-ahead the fork grid coarsens across idle stretches but
        // every forked state is still exact.
        Cycle budget = maxCycles - cycle;
        for (unsigned c = 0; c < soc.numCores(); ++c) {
            if (!soc.core(c).done()) {
                consumed = std::max(consumed, soc.core(c).tick(budget));
                allDone = false;
            }
        }
        cycle += consumed;
        if (consumed > 1)
            soc.system().clint.tick(consumed - 1);
        if (dt && !dt->ok()) {
            std::printf("[difftest] MISMATCH: %s\n",
                        dt->failures().front().c_str());
            std::printf("[difftest] last commits:\n");
            auto trace = dt->recentCommitTrace();
            size_t start = trace.size() > 8 ? trace.size() - 8 : 0;
            for (size_t i = start; i < trace.size(); ++i)
                std::printf("  %s\n", trace[i].c_str());
            if (opt.lightsssInterval && sss.triggerReplay(cycle))
                std::printf("[lightsss] debug replay completed\n");
            return 1;
        }
        if (allDone)
            break;
    }
    double sec = sw.elapsedSec();
    sss.discardAll();

    const auto &p = soc.core(0).perf();
    std::printf("[xiangshan-%s] %llu instrs, %llu cycles, ipc %.3f "
                "(%.0f KHz sim speed)\n",
                cfg.name.c_str(),
                static_cast<unsigned long long>(p.instrs),
                static_cast<unsigned long long>(p.cycles), p.ipc(),
                sec > 0 ? static_cast<double>(p.cycles) / sec / 1e3
                        : 0.0);
    std::printf("branches: %llu (mpki %.2f)  fused: %llu  moves "
                "eliminated: %llu\n",
                static_cast<unsigned long long>(p.branches), p.mpki(),
                static_cast<unsigned long long>(p.fusedPairs),
                static_cast<unsigned long long>(p.movesEliminated));
    if (dt)
        std::printf("[difftest] %llu commits checked, PASS\n",
                    static_cast<unsigned long long>(
                        dt->stats().commitsChecked));
    if (dt && opt.lightsssInterval) {
        const auto &ss = sss.stats();
        std::printf("[cosim] %.0f commits/s checked, lightsss %llu forks "
                    "%llu kills, fork us total %llu last %llu\n",
                    sec > 0 ? static_cast<double>(
                                  dt->stats().commitsChecked) / sec
                            : 0.0,
                    static_cast<unsigned long long>(ss.forks),
                    static_cast<unsigned long long>(ss.kills),
                    static_cast<unsigned long long>(ss.totalForkUs),
                    static_cast<unsigned long long>(ss.lastForkUs));
    }
    if (soc.system().simctrl.exited())
        std::printf("workload exit code: %llu\n",
                    static_cast<unsigned long long>(
                        soc.system().simctrl.exitCode()));
    return 0;
}

int
runSampledFlow(const Options &opt, const wl::Program &prog)
{
    xs::CoreConfig cfg = opt.config == "yqh" ? xs::CoreConfig::yqh()
                         : opt.config == "gem5ish"
                             ? xs::CoreConfig::gem5ish()
                             : xs::CoreConfig::nh();
    cfg.model = opt.model;

    sample::PackReader pack;
    if (!opt.packIn.empty()) {
        if (!pack.openFile(opt.packIn)) {
            std::fprintf(stderr, "cannot open pack '%s'\n",
                         opt.packIn.c_str());
            return 1;
        }
    } else {
        std::printf("[sample] profiling %s (interval %llu, max-k %u)\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.interval),
                    opt.maxK);
        auto gen = checkpoint::generateCheckpoints(
            prog, opt.interval, opt.maxK, opt.maxInstrs);
        std::printf("[sample] %zu checkpoints from %llu instructions\n",
                    gen.checkpoints.size(),
                    static_cast<unsigned long long>(gen.totalInsts));
        std::printf("[sample] pass 1 (BBV profile): %.1f MIPS, %.4fs; "
                    "pass 2 (snapshots): %.1f MIPS, %.4fs\n",
                    gen.profileMips, gen.profileSec, gen.generateMips,
                    gen.generateSec);
        std::printf("[sample] pack build: %zu pool pages, %zu page "
                    "references, %zu pages hashed\n",
                    gen.pack.poolPages(), gen.pack.totalPageRefs(),
                    gen.pack.pagesHashed());
        auto bytes = sample::packFromGen(gen);
        if (bytes.empty()) {
            std::fprintf(stderr, "checkpoint generation failed\n");
            return 1;
        }
        if (!opt.packOut.empty()) {
            std::ofstream f(opt.packOut, std::ios::binary);
            f.write(reinterpret_cast<const char *>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()));
            if (!f) {
                std::fprintf(stderr, "cannot write pack '%s'\n",
                             opt.packOut.c_str());
                return 1;
            }
            std::printf("[sample] pack written to %s\n",
                        opt.packOut.c_str());
        }
        if (!pack.openMemory(std::move(bytes))) {
            std::fprintf(stderr, "pack parse failed\n");
            return 1;
        }
    }

    sample::SampleConfig scfg;
    scfg.workers = opt.workers;
    scfg.warmupInsts = opt.warmup;
    scfg.measureInsts = opt.measure;
    scfg.coreCfg = cfg;
    auto rep = sample::runSampled(pack, scfg);

    std::printf("[sample] pack: %zu checkpoints, %zu pooled pages, "
                "%.1f KiB\n",
                pack.count(), pack.poolPages(),
                static_cast<double>(pack.sizeBytes()) / 1024.0);
    for (size_t i = 0; i < rep.slices.size(); ++i) {
        const auto &s = rep.slices[i];
        std::printf("  slice %zu @%-10llu w=%llu/%llu  %s", i,
                    static_cast<unsigned long long>(pack.instCount(i)),
                    static_cast<unsigned long long>(pack.weightNum(i)),
                    static_cast<unsigned long long>(pack.weightDen()),
                    s.ok ? "" : "FAILED");
        if (s.ok)
            std::printf("%llu instrs / %llu cycles (ipc %.3f)",
                        static_cast<unsigned long long>(s.instrs),
                        static_cast<unsigned long long>(s.cycles),
                        s.cycles ? static_cast<double>(s.instrs) /
                                       static_cast<double>(s.cycles)
                                 : 0.0);
        std::printf("\n");
    }
    std::printf("[sample] weighted ipc %.4f (cpi %.4f), %u workers, "
                "%.3fs wall\n",
                rep.weightedIpc(), rep.weightedCpi(), opt.workers,
                rep.wallSec);
    std::printf("%s", rep.stack.table("weighted top-down").c_str());
    std::printf("[sample] top-down exact-sum: %s\n",
                rep.stack.sumsExactly() ? "PASS" : "FAIL");
    if (rep.failures) {
        std::printf("[sample] %u slice(s) failed\n", rep.failures);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--engine")
            opt.engine = next();
        else if (arg == "--config")
            opt.config = next();
        else if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--iters")
            opt.iters = std::strtoull(next(), nullptr, 0);
        else if (arg == "--max-instrs")
            opt.maxInstrs = std::strtoull(next(), nullptr, 0);
        else if (arg == "--difftest")
            opt.difftest = true;
        else if (arg == "--lightsss")
            opt.lightsssInterval = std::strtoull(next(), nullptr, 0);
        else if (arg == "--inject-fault")
            opt.faultAfter = 1;
        else if (arg == "--sample")
            opt.sample = true;
        else if (arg == "--workers")
            opt.workers = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 0));
        else if (arg == "--warmup")
            opt.warmup = std::strtoull(next(), nullptr, 0);
        else if (arg == "--measure")
            opt.measure = std::strtoull(next(), nullptr, 0);
        else if (arg == "--interval")
            opt.interval = std::strtoull(next(), nullptr, 0);
        else if (arg == "--max-k")
            opt.maxK = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 0));
        else if (arg == "--pack-out")
            opt.packOut = next();
        else if (arg == "--pack-in")
            opt.packIn = next();
        else if (arg == "--xs-no-bitset")
            opt.model.bitsetSched = false;
        else if (arg == "--xs-no-skip")
            opt.model.skipAhead = false;
        else if (arg == "--xs-no-batch")
            opt.model.batchCommit = false;
        else if (arg == "--list") {
            std::printf("workloads: coremark memstress sum sv39");
            for (const auto &s : wl::specIntSuite())
                std::printf(" %s", s.name);
            for (const auto &s : wl::specFpSuite())
                std::printf(" %s", s.name);
            std::printf("\n");
            return 0;
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    bool ok;
    auto prog = pickWorkload(opt, ok);
    if (!ok) {
        std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                     opt.workload.c_str());
        return 1;
    }

    if (opt.sample)
        return runSampledFlow(opt, prog);
    if (opt.engine == "xiangshan")
        return runXiangshan(opt, prog);
    return runInterpreter(opt, prog);
}
