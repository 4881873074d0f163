#include "sample/engine.h"

#include <unistd.h>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/fork_pool.h"
#include "obs/collect.h"
#include "obs/serialize.h"

namespace minjie::sample {

namespace {

constexpr uint64_t BLOB_MAGIC = 0x4d4a534c30303031ULL; // "MJSL0001"

/** Snapshot the whole SoC counter tree with bare "core0.*" keys. */
obs::CounterSnapshot
socSnapshot(xs::Soc &soc)
{
    obs::CounterGroup root;
    obs::collectSoc(root, soc);
    obs::CounterSnapshot s;
    root.flattenInto(s, "");
    return s;
}

} // namespace

std::vector<uint8_t>
encodeSlice(const SliceResult &r)
{
    std::vector<uint8_t> v;
    ByteWriter w(v);
    w.u64(BLOB_MAGIC);
    w.u64(r.ok ? 1 : 0);
    w.u64(r.cycles);
    w.u64(r.instrs);
    obs::writeCounters(w, r.counters);
    return v;
}

bool
decodeSlice(const std::vector<uint8_t> &blob, SliceResult &r)
{
    ByteReader in(blob);
    if (in.u64() != BLOB_MAGIC)
        return false;
    SliceResult out;
    out.ok = in.u64() != 0;
    out.cycles = in.u64();
    out.instrs = in.u64();
    // A short or padded blob (a worker cut off mid-write) is rejected
    // whole, never read as a zero-cycle slice.
    if (!obs::readCounters(in, out.counters) || !in.done())
        return false;
    r = std::move(out);
    return true;
}

SliceResult
runSlice(const PackReader &pack, size_t i, const SampleConfig &cfg)
{
    SliceResult res;
    xs::Soc soc(cfg.coreCfg, 1, cfg.dramMb);
    if (!pack.restoreInto(i, soc.core(0).oracleState(), soc.system().dram))
        return res;

    // Paper protocol (Section III-D3): warm the detailed core from the
    // checkpoint, then measure; only the measured window is reported.
    // With no warmup this runs no cycle.
    soc.runUntilInstrs(cfg.warmupInsts, cfg.maxCycles);
    const auto &perf = soc.core(0).perf();
    const Cycle warmCycles = perf.cycles;
    const InstCount warmInstrs = perf.instrs;
    auto before = socSnapshot(soc);
    soc.runUntilInstrs(warmInstrs + cfg.measureInsts, cfg.maxCycles);
    res.counters = socSnapshot(soc).delta(before);
    res.cycles = perf.cycles - warmCycles;
    res.instrs = perf.instrs - warmInstrs;
    // A window cut short (program exit or maxCycles, in the warmup or
    // the window) fails: the reduction must not give it a full weight.
    res.ok = warmInstrs >= cfg.warmupInsts &&
             res.instrs >= cfg.measureInsts;
    return res;
}

SampleReport
runSampled(const PackReader &pack, const SampleConfig &cfg)
{
    SampleReport rep;
    rep.weightDen = pack.weightDen();
    size_t n = pack.count();
    rep.slices.resize(n);

    Stopwatch sw;
    const pid_t parent = ::getpid();
    auto results = runPool(n, cfg.workers, [&](size_t i) {
        if (i == cfg.crashSliceForTest && ::getpid() != parent)
            ::_exit(42);
        return encodeSlice(runSlice(pack, i, cfg));
    });
    rep.wallSec = sw.elapsedSec();

    // Deterministic reduction: checkpoint order, exact integer
    // weights. Worker scheduling cannot reorder or change anything
    // below because results are indexed by slice. A slice whose worker
    // died, or whose blob is garbled, stays failed.
    for (size_t i = 0; i < n; ++i) {
        SliceResult &s = rep.slices[i];
        if (!results[i].ok || !decodeSlice(results[i].bytes, s) || !s.ok) {
            ++rep.failures;
            continue;
        }
        uint64_t w = pack.weightNum(i);
        rep.weighted.mergeScaled(s.counters, w);
        rep.weightedCycles += w * s.cycles;
        rep.weightedInstrs += w * s.instrs;
    }
    rep.stack = obs::CpiStack::fromCounters(rep.weighted, "core0");
    return rep;
}

} // namespace minjie::sample
