/**
 * @file
 * The Section IV-C debugging story, end to end:
 *
 * A dual-core XIANGSHAN runs a shared-memory workload while DiffTest
 * checks every commit against per-core NEMU references (with the Global
 * Memory rule reconciling cross-core stores), LightSSS snapshots the
 * whole simulator process periodically, and ArchDB records cache
 * transactions. A data-corruption fault is injected into one core's
 * load path mid-run; DiffTest flags the mismatch, LightSSS wakes the
 * pre-failure snapshot which replays the failure window with debug
 * logging enabled, and the ArchDB transaction table is queried for the
 * affected cache line — exactly the paper's bug-hunt workflow.
 *
 * Build & run:  ./build/examples/difftest_demo
 */

#include <cstdio>

#include "archdb/archdb.h"
#include "common/log.h"
#include "difftest/difftest.h"
#include "lightsss/lightsss.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

using namespace minjie;
namespace wl = minjie::workload;

namespace {

/** Build the demo system fresh (both the main run and the replay child
 *  construct the identical simulator; the child then reproduces the
 *  window from its copy-on-write snapshot state). */
struct Demo
{
    xs::Soc soc{xs::CoreConfig::nh(), 2};
    difftest::DiffTest dt{soc};
    archdb::ArchDB db;
    wl::Program prog = wl::coremarkProxy(2000);

    Demo()
    {
        dt.loadProgram(prog);
        soc.mem().setTxnLog([this](const uarch::Transaction &t) {
            db.recordTransaction(t);
        });
    }
};

} // namespace

int
main()
{
    std::printf("=== DiffTest + LightSSS + ArchDB demo (paper Section "
                "IV-C) ===\n\n");

    Demo demo;
    lightsss::LightSSS sss({50'000, 2, true});

    // Inject a single-bit corruption into core 1's load path after it
    // has been running for a while (the L2 MSHR bug stand-in).
    const Cycle injectAt = 180'000;
    bool injected = false;

    std::string mismatch;
    demo.dt.setOnMismatch([&](const std::string &m) { mismatch = m; });

    bool replayMode = false;
    Cycle replayUntil = 0;

    Cycle cycle = demo.soc.runWhile(5'000'000, [&](Cycle now) {
        if (!demo.dt.ok())
            return false;
        auto role = sss.tick(now);
        if (role == lightsss::LightSSS::Role::ReplayChild) {
            // We are the woken snapshot: turn on debug logging and
            // replay the window (paper: "3 minutes to re-simulate the
            // last 30.8K cycles with waveform enabled").
            replayMode = true;
            replayUntil = sss.replayTargetCycle();
            Logger::instance().setOutputFile("difftest_demo_replay.log");
            Logger::instance().setLevel(LogLevel::Debug);
            MJ_DEBUG("replay starts at cycle %llu, target %llu",
                     static_cast<unsigned long long>(now),
                     static_cast<unsigned long long>(replayUntil));
        }
        if (replayMode && Logger::instance().debugEnabled() &&
            (now % 1000) == 0) {
            MJ_DEBUG("cycle %llu: core0 %llu instrs, core1 %llu instrs",
                     static_cast<unsigned long long>(now),
                     static_cast<unsigned long long>(
                         demo.soc.core(0).perf().instrs),
                     static_cast<unsigned long long>(
                         demo.soc.core(1).perf().instrs));
        }
        if (!injected && now >= injectAt) {
            demo.soc.core(1).injectLoadFault(0x0000000000010000ULL);
            injected = true;
        }
        return true;
    }).cycles;

    if (replayMode && !demo.dt.ok()) {
        MJ_DEBUG("failure reproduced at cycle %llu: %s",
                 static_cast<unsigned long long>(cycle),
                 demo.dt.failures().front().c_str());
        std::printf("[replay child] failure reproduced at cycle %llu; "
                    "debug log written\n",
                    static_cast<unsigned long long>(cycle));
        lightsss::LightSSS::finishReplay(0);
    }

    if (demo.dt.ok()) {
        std::printf("no mismatch detected (unexpected for this demo)\n");
        return 1;
    }

    std::printf("[difftest] mismatch at cycle %llu after %llu checked "
                "commits:\n  %s\n\n",
                static_cast<unsigned long long>(cycle),
                static_cast<unsigned long long>(
                    demo.dt.stats().commitsChecked),
                mismatch.c_str());

    std::printf("[lightsss] waking the pre-failure snapshot for a "
                "debug-mode replay...\n");
    if (sss.triggerReplay(cycle)) {
        std::printf("[lightsss] replay finished; see "
                    "difftest_demo_replay.log\n\n");
    } else {
        std::printf("[lightsss] no snapshot replayed the failure\n\n");
    }

    // ArchDB: query the transactions on the affected line, as the
    // paper does to spot the Acquire/Probe overlap.
    std::printf("[archdb] %s\n", demo.db.report().c_str());

    std::printf("demo complete: fault injected -> DiffTest caught -> "
                "LightSSS replayed -> ArchDB queried\n");
    return 0;
}
