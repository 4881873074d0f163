#include "checkpoint/generator.h"

#include <algorithm>

#include "iss/system.h"
#include "nemu/nemu.h"

namespace minjie::checkpoint {

namespace {

double
mips(InstCount insts, double sec)
{
    return sec > 0 ? static_cast<double>(insts) / sec / 1e6 : 0;
}

} // namespace

GenResult
generateCheckpoints(const workload::Program &prog,
                    InstCount intervalInsts, unsigned maxK,
                    InstCount maxInsts)
{
    GenResult out;

    // ---- pass 1: profile BBVs in NEMU's threaded engine ----
    std::vector<Bbv> bbvs;
    {
        PhaseMeter phase;
        iss::System sys(256);
        prog.loadInto(sys.dram);
        nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
        nemu.setHaltFn([&] { return sys.simctrl.exited(); });
        nemu.profileBbvs(intervalInsts);

        Stopwatch sw;
        auto r = nemu.run(maxInsts);
        bbvs = nemu.takeBbvs();
        out.totalInsts = r.executed;
        out.profileSec = sw.elapsedSec();
        out.profileMips = mips(r.executed, out.profileSec);
        out.profilePhase = phase.end();
    }

    // ---- SimPoint clustering ----
    out.simpoints = simpoint(bbvs, maxK);

    // Short-program edge: a run that retires fewer than intervalInsts
    // instructions after its last control transfer (or none at all)
    // reports no complete BBV interval, and clustering nothing would
    // return an empty GenResult. Fall back to a single whole-run
    // checkpoint of weight 1/1 — interval 0 makes pass 2 snapshot the
    // initial state, so restoring it replays the entire execution.
    if (out.simpoints.intervals.empty()) {
        out.simpoints.intervals = {0};
        out.simpoints.sizes = {1};
        out.simpoints.assignment = {0};
    }

    // ---- pass 2: re-run fast, snapshot boundaries into the pack ----
    PhaseMeter phase;
    const SimPoints &sp = out.simpoints;
    std::vector<std::pair<InstCount, size_t>> boundaries;
    for (size_t i = 0; i < sp.intervals.size(); ++i)
        boundaries.push_back(
            {static_cast<InstCount>(sp.intervals[i]) * intervalInsts, i});
    std::sort(boundaries.begin(), boundaries.end());

    out.checkpoints.resize(sp.intervals.size());
    out.pack = PackWriter(sp.weightDen(), sp.intervals.size());
    iss::System sys(256);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });

    Stopwatch sw;
    InstCount executed = 0;
    for (const auto &[target, cpIdx] : boundaries) {
        if (target > executed) {
            auto r = nemu.run(target - executed);
            executed += r.executed;
        }
        out.pack.snapshot(cpIdx, nemu.state(), sys.dram, executed,
                          sp.sizes[cpIdx]);
        out.checkpoints[cpIdx] = executed;
    }
    out.generateSec = sw.elapsedSec();
    out.generateMips = mips(executed, out.generateSec);
    out.generatePhase = phase.end();
    return out;
}

} // namespace minjie::checkpoint
