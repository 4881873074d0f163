#include "sample/engine.h"

#include <cerrno>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>    // malloc_trim
#include <stdio_ext.h> // __fpurge: discard inherited stdio buffers
#endif

#include "checkpoint/pack.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "obs/collect.h"
#include "obs/serialize.h"

namespace minjie::sample {

namespace {

constexpr uint64_t BLOB_MAGIC = 0x4d4a534c30303031ULL; // "MJSL0001"

bool
writeAll(int fd, const uint8_t *p, size_t n)
{
    while (n) {
        ssize_t w = ::write(fd, p, n);
        if (w <= 0)
            return false;
        p += static_cast<size_t>(w);
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Drain @p fd to EOF (the child writes one blob and exits). */
std::vector<uint8_t>
readAll(int fd)
{
    std::vector<uint8_t> out;
    uint8_t buf[4096];
    for (;;) {
        ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r <= 0)
            break;
        out.insert(out.end(), buf, buf + r);
    }
    return out;
}

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
    if (i >= pack.count() || i == cfg.crashSliceForTest)
        return res;

    PackReader handoff; // outlives soc, whose memory maps its pages
    xs::Soc soc(cfg.coreCfg, 1, cfg.dramMb);
    const PackReader *from = &pack;
    size_t slot = i;
    if (cfg.warmupInsts > 0) {
        // Functional warmup: fast-forward on NEMU from the checkpoint,
        // then hand the advanced state to the detailed core through a
        // one-slot pack. The measurement point moves warmupInsts past
        // the slice start.
        iss::System warm(cfg.dramMb);
        nemu::Nemu nemu(warm.bus, warm.dram, 0, 0);
        if (!pack.restoreInto(i, nemu.state(), warm.dram))
            return res;
        nemu.flushUopCache();
        nemu.setHaltFn([&] { return warm.simctrl.exited(); });
        nemu.run(cfg.warmupInsts);
        checkpoint::PackWriter writer(1, 1);
        writer.snapshot(0, nemu.state(), warm.dram, 0, 1);
        if (!handoff.openMemory(writer.bytes()))
            return res;
        from = &handoff;
        slot = 0;
    }
    if (!from->restoreInto(slot, soc.core(0).oracleState(),
                           soc.system().dram))
        return res;

    auto before = socSnapshot(soc);
    soc.runUntilInstrs(cfg.measureInsts, cfg.maxCycles);
    res.counters = socSnapshot(soc).delta(before);
    res.cycles = soc.core(0).perf().cycles;
    res.instrs = soc.core(0).perf().instrs;
    res.ok = true;
    return res;
}

namespace {

struct Inflight
{
    pid_t pid;
    int fd;
    size_t idx;
};

/** Child body: evaluate one slice, pipe the blob back, _exit. Never
 *  returns. The child inherits the parent's read-only pack mapping
 *  (or COW heap copy), so no checkpoint bytes are re-transferred. */
[[noreturn]] void
childMain(const PackReader &pack, size_t idx, const SampleConfig &cfg,
          int wfd)
{
#if defined(__GLIBC__)
    // Discard stdio bytes duplicated from the parent by fork(); the
    // parent flushes its own copy. This worker writes only to wfd.
    __fpurge(stdout);
    __fpurge(stdin);
#endif
    if (idx == cfg.crashSliceForTest)
        ::_exit(42); // simulated crash: die without reporting
    SliceResult r = runSlice(pack, idx, cfg);
    auto blob = encodeSlice(r);
    writeAll(wfd, blob.data(), blob.size());
    ::close(wfd);
    ::_exit(0);
}

/** Reap whichever in-flight worker reports first into its result
 *  slot, so one long slice does not hold back the refill. */
void
reapOne(std::vector<Inflight> &inflight, std::vector<SliceResult> &out)
{
    std::vector<pollfd> fds;
    fds.reserve(inflight.size());
    for (const Inflight &f : inflight)
        fds.push_back({f.fd, POLLIN, 0});
    int ready;
    do {
        ready = ::poll(fds.data(), fds.size(), -1);
    } while (ready < 0 && errno == EINTR);
    size_t k = 0; // poll failed: block on the oldest instead
    while (ready > 0 && k + 1 < fds.size() && fds[k].revents == 0)
        ++k;
    Inflight f = inflight[k];
    inflight.erase(inflight.begin() + static_cast<ptrdiff_t>(k));
    std::vector<uint8_t> blob = readAll(f.fd);
    ::close(f.fd);
    int status = 0;
    ::waitpid(f.pid, &status, 0);
    bool cleanExit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    SliceResult r;
    if (!cleanExit || !decodeSlice(blob, r))
        r = SliceResult{}; // crashed / truncated pipe: failed slice
    out[f.idx] = std::move(r);
}

} // namespace

SampleReport
runSampled(const PackReader &pack, const SampleConfig &cfg)
{
    SampleReport rep;
    rep.weightDen = pack.weightDen();
    size_t n = pack.count();
    rep.slices.resize(n);

    Stopwatch sw;
    if (cfg.workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            rep.slices[i] = runSlice(pack, i, cfg);
    } else {
#if defined(__GLIBC__)
        // fork() copies the page-table entries of every resident heap
        // page, freed ones included (e.g. a pack writer's pool just
        // serialized): hand those back first so no worker inherits them.
        ::malloc_trim(0);
#endif
        std::vector<Inflight> inflight;
        size_t next = 0;
        while (next < n || !inflight.empty()) {
            if (next < n && inflight.size() < cfg.workers) {
                int fds[2];
                if (::pipe(fds) != 0) {
                    rep.slices[next] = runSlice(pack, next, cfg);
                    ++next;
                    continue;
                }
                pid_t pid = ::fork();
                if (pid == 0) {
                    ::close(fds[0]);
                    childMain(pack, next, cfg, fds[1]);
                }
                ::close(fds[1]);
                if (pid < 0) {
                    // Fork pressure: degrade to in-process, results
                    // stay identical (the slice itself is
                    // deterministic either way).
                    ::close(fds[0]);
                    rep.slices[next] = runSlice(pack, next, cfg);
                } else {
                    inflight.push_back({pid, fds[0], next});
                }
                ++next;
            } else {
                reapOne(inflight, rep.slices);
            }
        }
    }
    rep.wallSec = sw.elapsedSec();

    // Deterministic reduction: checkpoint order, exact integer
    // weights. Worker scheduling cannot reorder or change anything
    // below because results are indexed by slice.
    for (size_t i = 0; i < n; ++i) {
        const SliceResult &s = rep.slices[i];
        if (!s.ok) {
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
