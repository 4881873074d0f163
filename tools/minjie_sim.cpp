/**
 * @file
 * minjie-sim: the command-line front door of the platform.
 *
 *   minjie-sim --engine nemu --workload coremark --iters 2000
 *   minjie-sim --engine xiangshan --config nh --workload 458.sjeng \
 *              --difftest --lightsss 100000
 *   minjie-sim --engine xiangshan --workload coremark --iters 200 \
 *              --trace run.mjt --chrome run.json
 *   minjie-sim --list
 *
 * Runs one workload on one engine, optionally under DiffTest
 * co-simulation with LightSSS snapshots, and prints a performance and
 * verification summary — the single-run analogue of the paper's
 * "launch the RTL-simulation and the tools are automatically invoked"
 * workflow (Section III-E). --trace attaches the counter tree and the
 * ring-buffer tracer and writes a .mjt artifact that `minjie-trace`
 * renders. A bad run-spec (unknown engine, config, workload or flag,
 * or a missing or non-numeric value) exits 2 with a message.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "archdb/archdb.h"
#include "checkpoint/generator.h"
#include "common/clock.h"
#include "common/parse.h"
#include "difftest/difftest.h"
#include "iss/interp.h"
#include "iss/system.h"
#include "lightsss/lightsss.h"
#include "nemu/nemu.h"
#include "obs/collect.h"
#include "obs/serialize.h"
#include "sample/engine.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

using namespace minjie;
namespace wl = minjie::workload;

namespace {

/** Ring-buffer capacity of a --trace run, in events. */
constexpr size_t TRACE_CAP = 4096;

struct Options
{
    std::string engine = "nemu"; // nemu|spike|dromajo|tci|xiangshan
    std::string config = "nh";   // nh|yqh|gem5ish (xiangshan only)
    std::string workload = "coremark";
    uint64_t iters = 1000;
    InstCount maxInstrs = 50'000'000;
    bool difftest = false;
    Cycle lightsssInterval = 0;
    bool injectFault = false; // corrupt one load (difftest demo)
    xs::ModelOpts model;     // --xs-no-* fast-path ablations

    std::string traceOut;  // --trace: write a .mjt artifact here
    std::string chromeOut; // ... and its Chrome trace_event JSON here
    bool archdb = false;   // ... and print its ArchDB report

    // Sampled simulation (--sample): SimPoint checkpoints evaluated
    // across forked workers instead of one full detailed run.
    bool sample = false;
    uint64_t workers = 1;
    uint64_t warmup = 0;
    uint64_t measure = 20'000;
    uint64_t interval = 50'000;
    uint64_t maxK = 4;
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
        "  --trace F      write a .mjt counter + trace artifact to F\n"
        "                 (xiangshan or nemu; read with minjie-trace)\n"
        "  --chrome F     with --trace: also write Chrome trace JSON\n"
        "  --archdb       with --trace: print the ArchDB report\n"
        "  --sample       SimPoint sampled evaluation (fork pool)\n"
        "  --workers N    forked slice workers (default 1)\n"
        "  --warmup M     detailed-warmup instructions per slice,\n"
        "                 run before the window and not measured\n"
        "  --measure N    detailed window per slice (default 20000)\n"
        "  --interval N   SimPoint interval length (default 50000)\n"
        "  --max-k K      max SimPoint clusters (default 4)\n"
        "  --pack-out F   write the .mjk checkpoint pack to F\n"
        "  --pack-in F    evaluate an existing .mjk pack\n"
        "  --list         list available workloads\n");
}

bool
writeFile(const std::string &path, std::string_view bytes)
{
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.close();
    if (!f)
        std::fprintf(stderr, "minjie-sim: cannot write %s\n",
                     path.c_str());
    return static_cast<bool>(f);
}

/** Write the --trace artifact and its --chrome / --archdb views. */
int
writeTrace(const Options &opt, const obs::CounterGroup &counters,
           std::vector<obs::TraceEvent> events)
{
    obs::RunArtifact art;
    art.runLabel = opt.workload + "@" +
                   (opt.engine == "nemu" ? opt.engine : opt.config);
    art.counters = counters.snapshot();
    art.events = std::move(events);
    if (!writeFile(opt.traceOut, obs::serializeMjt(art)))
        return 1;
    std::printf("wrote %s (%zu counters, %zu events)\n",
                opt.traceOut.c_str(), art.counters.values.size(),
                art.events.size());
    if (!opt.chromeOut.empty()) {
        if (!writeFile(opt.chromeOut, obs::toChromeJson(art)))
            return 1;
        std::printf("wrote %s\n", opt.chromeOut.c_str());
    }
    if (opt.archdb) {
        archdb::ArchDB db;
        obs::exportToArchDB(db, art.counters);
        obs::exportTraceToArchDB(db, art.events);
        std::printf("%s", db.report().c_str());
    }
    return 0;
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
    auto *nemu = dynamic_cast<nemu::Nemu *>(engine.get());

    // NEMU's block-boundary hook fires only on the step path, so a
    // traced run steps instruction by instruction (the base-class
    // run); untraced runs keep the threaded-code fast path.
    obs::TraceBuffer trace(TRACE_CAP);
    const bool traced = !opt.traceOut.empty();
    uint64_t blocks = 0;
    if (traced)
        nemu->setBlockHook([&](Addr pc, uint32_t len) {
            trace.record(obs::Ev::Block, blocks++, pc, len);
        });

    Stopwatch sw;
    iss::RunResult r = traced ? engine->iss::Interp::run(opt.maxInstrs)
                              : engine->run(opt.maxInstrs);
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
    if (opt.traceOut.empty())
        return 0;
    obs::CounterGroup root;
    obs::collectNemu(root, *nemu);
    root.set("instrs", r.executed);
    return writeTrace(opt, root, trace.events());
}

int
runXiangshan(const Options &opt, const wl::Program &prog,
             const xs::CoreConfig &cfg)
{
    xs::Soc soc(cfg);
    std::unique_ptr<difftest::DiffTest> dt;
    if (opt.difftest) {
        dt = std::make_unique<difftest::DiffTest>(soc);
        dt->loadProgram(prog);
    } else {
        soc.loadProgram(prog);
    }

    obs::TraceBuffer trace(TRACE_CAP);
    if (!opt.traceOut.empty()) {
        for (unsigned c = 0; c < soc.numCores(); ++c)
            soc.core(c).setTrace(&trace);
        obs::attachCacheTrace(soc.mem(), trace);
        if (dt)
            dt->attachTrace(&trace);
    }
    if (opt.injectFault)
        soc.core(0).injectLoadFault(0x1000);

    lightsss::LightSSS sss(
        {opt.lightsssInterval ? opt.lightsssInterval : 1, 2,
         opt.lightsssInterval != 0});

    // LightSSS snapshots fork at loop-visible cycles only; with
    // skip-ahead the fork grid coarsens across idle stretches but
    // every forked state is still exact.
    Stopwatch sw;
    bool replayChild = false;
    auto run = soc.runWhile(2'000'000'000, [&](Cycle cycle) {
        if ((dt && !dt->ok()) ||
            soc.core(0).perf().instrs >= opt.maxInstrs)
            return false;
        if (opt.lightsssInterval &&
            sss.tick(cycle) == lightsss::LightSSS::Role::ReplayChild) {
            replayChild = true;
            Logger::instance().setLevel(LogLevel::Debug);
            std::printf("[lightsss] replay child running to cycle %llu\n",
                        static_cast<unsigned long long>(
                            sss.replayTargetCycle()));
        }
        return true;
    });
    double sec = sw.elapsedSec();

    int rc = 0;
    if (dt && !dt->ok()) {
        std::printf("[difftest] MISMATCH: %s\n",
                    dt->failures().front().c_str());
        std::printf("[difftest] last commits:\n");
        auto commits = dt->recentCommitTrace();
        size_t start = commits.size() > 8 ? commits.size() - 8 : 0;
        for (size_t i = start; i < commits.size(); ++i)
            std::printf("  %s\n", commits[i].c_str());
        // A replay child succeeds by reproducing the failure.
        if (replayChild)
            lightsss::LightSSS::finishReplay(0);
        if (opt.lightsssInterval && sss.triggerReplay(run.cycles))
            std::printf("[lightsss] debug replay completed\n");
        rc = 1;
    } else {
        if (replayChild)
            lightsss::LightSSS::finishReplay(1); // failure not reproduced
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
            std::printf(
                "[cosim] %.0f commits/s checked, lightsss %llu forks "
                "%llu kills, fork us total %llu last %llu, "
                "faults/interval %llu\n",
                sec > 0 ? static_cast<double>(
                              dt->stats().commitsChecked) / sec
                        : 0.0,
                static_cast<unsigned long long>(ss.forks),
                static_cast<unsigned long long>(ss.kills),
                static_cast<unsigned long long>(ss.totalForkUs),
                static_cast<unsigned long long>(ss.lastForkUs),
                static_cast<unsigned long long>(ss.faultsPerInterval()));
        }
        if (soc.system().simctrl.exited())
            std::printf("workload exit code: %llu\n",
                        static_cast<unsigned long long>(
                            soc.system().simctrl.exitCode()));
    }
    if (opt.traceOut.empty())
        return rc;
    // A mismatching run keeps DiffTest's divergence window: the trace
    // events leading up to the first bad commit.
    obs::CounterGroup root;
    obs::collectSoc(root, soc);
    bool window = dt && !dt->ok() && !dt->divergenceWindow().empty();
    return writeTrace(opt, root,
                      window ? dt->divergenceWindow() : trace.events())
               ? 1
               : rc;
}

int
runSampledFlow(const Options &opt, const wl::Program &prog,
               const xs::CoreConfig &cfg)
{
    sample::PackReader pack;
    if (!opt.packIn.empty()) {
        if (!pack.openFile(opt.packIn)) {
            std::fprintf(stderr, "cannot open pack '%s'\n",
                         opt.packIn.c_str());
            return 1;
        }
    } else {
        std::printf("[sample] profiling %s (interval %llu, max-k %llu)\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.interval),
                    static_cast<unsigned long long>(opt.maxK));
        auto gen = checkpoint::generateCheckpoints(
            prog, opt.interval, static_cast<unsigned>(opt.maxK),
            opt.maxInstrs);
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
            if (!writeFile(opt.packOut,
                           {reinterpret_cast<const char *>(bytes.data()),
                            bytes.size()}))
                return 1;
            std::printf("[sample] pack written to %s\n",
                        opt.packOut.c_str());
        }
        if (!pack.openMemory(std::move(bytes))) {
            std::fprintf(stderr, "pack parse failed\n");
            return 1;
        }
    }

    sample::SampleConfig scfg;
    scfg.workers = static_cast<unsigned>(opt.workers);
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
        else
            std::printf(" (measured %llu of %llu requested instrs)",
                        static_cast<unsigned long long>(s.instrs),
                        static_cast<unsigned long long>(scfg.measureInsts));
        std::printf("\n");
    }
    std::printf("[sample] weighted ipc %.4f (cpi %.4f), %u workers, "
                "%.3fs wall\n",
                rep.weightedIpc(), rep.weightedCpi(), scfg.workers,
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

/** Parse argv into @p opt; returns what is wrong, or "" if nothing. */
std::string
parseArgs(int argc, char **argv, Options &opt, bool &list, bool &help)
{
    const std::map<std::string, std::string *> strFlags = {
        {"--engine", &opt.engine},     {"--config", &opt.config},
        {"--workload", &opt.workload}, {"--trace", &opt.traceOut},
        {"--chrome", &opt.chromeOut},  {"--pack-out", &opt.packOut},
        {"--pack-in", &opt.packIn},
    };
    const std::map<std::string, uint64_t *> numFlags = {
        {"--iters", &opt.iters},      {"--max-instrs", &opt.maxInstrs},
        {"--lightsss", &opt.lightsssInterval},
        {"--workers", &opt.workers},  {"--warmup", &opt.warmup},
        {"--measure", &opt.measure},  {"--interval", &opt.interval},
        {"--max-k", &opt.maxK},
    };
    // Switches: the flag stores the paired value.
    const std::map<std::string, std::pair<bool *, bool>> switches = {
        {"--difftest", {&opt.difftest, true}},
        {"--inject-fault", {&opt.injectFault, true}},
        {"--archdb", {&opt.archdb, true}},
        {"--sample", {&opt.sample, true}},
        {"--xs-no-bitset", {&opt.model.bitsetSched, false}},
        {"--xs-no-skip", {&opt.model.skipAhead, false}},
        {"--list", {&list, true}},
        {"--help", {&help, true}},
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (auto sw = switches.find(arg); sw != switches.end()) {
            *sw->second.first = sw->second.second;
            continue;
        }
        auto str = strFlags.find(arg);
        auto num = numFlags.find(arg);
        if (str == strFlags.end() && num == numFlags.end())
            return "unknown option '" + arg + "' (see --help)";
        if (++i == argc)
            return arg + " needs a value";
        if (str != strFlags.end())
            *str->second = argv[i];
        else if (!parseU64(argv[i], *num->second))
            return arg + " needs a number, got '" + argv[i] + "'";
    }
    return "";
}

/** What is wrong with a parsed run-spec, or "" if nothing. */
std::string
checkSpec(const Options &opt, bool configKnown, bool workloadKnown)
{
    const auto engines = {"nemu", "spike", "dromajo", "tci", "xiangshan"};
    if (std::find(engines.begin(), engines.end(), opt.engine) ==
        engines.end())
        return "unknown engine '" + opt.engine + "'";
    if (!configKnown)
        return "unknown config '" + opt.config + "'";
    if (!workloadKnown)
        return "unknown workload '" + opt.workload + "' (try --list)";
    if (!opt.traceOut.empty() && (opt.sample || (opt.engine != "xiangshan" &&
                                                 opt.engine != "nemu")))
        return "--trace needs --engine xiangshan or nemu, without "
               "--sample";
    if (opt.traceOut.empty() && (!opt.chromeOut.empty() || opt.archdb))
        return "--chrome and --archdb need --trace";
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool list = false, help = false;
    std::string err = parseArgs(argc, argv, opt, list, help);
    if (help) {
        usage();
        return 0;
    }
    if (err.empty() && list) {
        std::printf("workloads:");
        for (const auto &name : wl::names())
            std::printf(" %s", name.c_str());
        std::printf("\n");
        return 0;
    }
    std::optional<xs::CoreConfig> cfg;
    std::optional<wl::Program> prog;
    if (err.empty()) {
        cfg = xs::CoreConfig::byName(opt.config);
        prog = wl::byName(opt.workload, opt.iters);
        err = checkSpec(opt, cfg.has_value(), prog.has_value());
    }
    if (!err.empty()) {
        std::fprintf(stderr, "minjie-sim: %s\n", err.c_str());
        return 2;
    }
    cfg->model = opt.model;

    if (opt.sample)
        return runSampledFlow(opt, *prog, *cfg);
    if (opt.engine == "xiangshan")
        return runXiangshan(opt, *prog, *cfg);
    return runInterpreter(opt, *prog);
}
