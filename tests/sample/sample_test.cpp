/**
 * @file
 * Sampled-simulation engine tests: the .mjk pack store (dedup, mmap,
 * exact integer weights) and the fork-fanout evaluation engine
 * (worker-count invariance, crash isolation, warmup semantics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "checkpoint/checkpoint.h"
#include "checkpoint/generator.h"
#include "checkpoint/pack.h"
#include "common/bytes.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "obs/collect.h"
#include "sample/engine.h"
#include "sample/store.h"
#include "workload/shrinkable.h"

namespace {

using namespace minjie;
namespace wl = minjie::workload;
namespace cp = minjie::checkpoint;

/** Small deterministic pack shared by the engine tests. */
cp::GenResult
makeGen(uint64_t iters = 200, InstCount interval = 20'000)
{
    auto prog = wl::coremarkProxy(iters);
    return cp::generateCheckpoints(prog, interval, 4, 10'000'000);
}

sample::PackReader
makePack(const cp::GenResult &gen)
{
    sample::PackReader pack;
    EXPECT_TRUE(pack.openMemory(sample::packFromGen(gen)));
    return pack;
}

/** What a checkpoint of @p st / @p m must carry: the arch blob, then
 *  every non-zero page as {base, bytes}, ascending. */
std::vector<uint8_t>
image(const iss::ArchState &st, const mem::PhysMem &m)
{
    std::vector<uint8_t> v;
    cp::serializeArch(v, st);
    ByteWriter w(v);
    m.forEachPage([&](Addr base, const uint8_t *data) {
        if (std::all_of(data, data + mem::PhysMem::PAGE_SIZE,
                        [](uint8_t b) { return b == 0; }))
            return;
        w.u64(base);
        w.bytes(data, mem::PhysMem::PAGE_SIZE);
    });
    return v;
}

/** Image of a fresh NEMU run of @p prog to @p insts instructions. */
std::vector<uint8_t>
freshImage(const wl::Program &prog, InstCount insts)
{
    iss::System sys(256);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });
    EXPECT_EQ(nemu.run(insts).executed, insts);
    return image(nemu.state(), sys.dram);
}

/** Every checkpoint of the streamed pack, restored (demand-paged), must
 *  hold the image of a fresh run to the same instruction count. */
void
expectPackMatchesFreshRuns(const wl::Program &prog, const cp::GenResult &gen,
                           const std::string &what)
{
    sample::PackReader pack;
    ASSERT_TRUE(pack.openMemory(sample::packFromGen(gen))) << what;
    ASSERT_EQ(pack.count(), gen.checkpoints.size()) << what;
    for (size_t i = 0; i < pack.count(); ++i) {
        ASSERT_EQ(pack.instCount(i), gen.checkpoints[i]) << what;
        iss::ArchState st;
        mem::PhysMem m(0x80000000, 256ull << 20);
        ASSERT_TRUE(pack.restoreInto(i, st, m)) << what;
        EXPECT_TRUE(image(st, m) == freshImage(prog, pack.instCount(i)))
            << what << " checkpoint " << i << " @" << pack.instCount(i);
    }
}

TEST(SampleStore, PackRoundtripMatchesCheckpointRestore)
{
    auto prog = wl::coremarkProxy(200);
    auto gen = cp::generateCheckpoints(prog, 20'000, 4, 10'000'000);
    ASSERT_GE(gen.checkpoints.size(), 2u);
    expectPackMatchesFreshRuns(prog, gen, "coremark");

    // A demand-paged restore, packed again into a one-slot pack and
    // restored, holds the same image and reads back identical memory,
    // zero-elided pages included.
    auto pack = makePack(gen);
    for (size_t i = 0; i < pack.count(); ++i) {
        iss::ArchState a, b;
        mem::PhysMem memB(0x80000000, 1 << 26);
        ASSERT_TRUE(pack.restoreInto(i, b, memB));
        cp::PackWriter w(1, 1);
        w.snapshot(0, b, memB, 0, 1);
        sample::PackReader again;
        ASSERT_TRUE(again.openMemory(w.bytes()));
        mem::PhysMem memA(0x80000000, 1 << 26);
        ASSERT_TRUE(again.restoreInto(0, a, memA));
        EXPECT_EQ(image(a, memA), image(b, memB)) << "checkpoint " << i;
        EXPECT_EQ(a.pc, b.pc) << "checkpoint " << i;
        EXPECT_EQ(a.instret, b.instret);
        for (Addr addr = 0x80000000; addr < 0x80000000 + 0x40000;
             addr += 0x1000) {
            uint64_t va = 0, vb = 0;
            memA.read(addr, 8, va);
            memB.read(addr, 8, vb);
            ASSERT_EQ(va, vb) << std::hex << addr;
        }
    }
}

TEST(SampleStore, StreamedPackMatchesFreshRuns)
{
    // Differential check of dirty-page streaming: every SPEC proxy at a
    // short budget, then random fuzz programs with fp, RVC and AMO.
    for (const auto *suite : {&wl::specIntSuite(), &wl::specFpSuite()})
        for (const auto &spec : *suite) {
            auto prog = wl::buildProxy(spec, 1000);
            auto gen = cp::generateCheckpoints(prog, 3'000, 3, 30'000);
            expectPackMatchesFreshRuns(prog, gen, spec.name);
        }
    for (uint64_t seed = 0; seed < 60; ++seed) {
        Rng rng(0x5eed + seed);
        wl::RandomSpec spec;
        spec.nInsts = 300;
        spec.withFp = seed % 2 == 0;
        spec.withRvc = seed % 3 != 0;
        spec.withAmo = true;
        auto prog = wl::randomShrinkable(rng, spec).assemble();
        auto gen = cp::generateCheckpoints(prog, 40, 4, 100'000);
        expectPackMatchesFreshRuns(prog, gen,
                                   "random#" + std::to_string(seed));
    }
}

TEST(SampleStore, WeightsAreExactIntegersSummingToOne)
{
    auto gen = makeGen();
    auto pack = makePack(gen);
    uint64_t sum = 0;
    for (size_t i = 0; i < pack.count(); ++i)
        sum += pack.weightNum(i);
    // SimPoint weights are clusterSize/nIntervals: numerators must
    // sum exactly to the common denominator (total intervals).
    EXPECT_EQ(sum, pack.weightDen());
    EXPECT_EQ(pack.weightDen(), gen.simpoints.weightDen());
    for (size_t i = 0; i < pack.count(); ++i)
        EXPECT_EQ(pack.weightNum(i), gen.simpoints.sizes[i]);
}

TEST(SampleStore, DedupsPagesAcrossCheckpoints)
{
    // Checkpoints of the same program share most of their image (code
    // pages, untouched data); the pool must store those pages once,
    // and streaming must hash only the pages written between snapshots.
    auto gen = makeGen(400);
    ASSERT_GE(gen.checkpoints.size(), 2u);
    const auto &w = gen.pack;
    EXPECT_LT(w.poolPages(), w.totalPageRefs())
        << "no page was shared between checkpoints";
    EXPECT_LT(w.pagesHashed(), w.totalPageRefs())
        << "clean pages were re-hashed";
    EXPECT_LT(w.bytes().size(),
              w.totalPageRefs() * mem::PhysMem::PAGE_SIZE)
        << "pack is not smaller than the per-checkpoint images";
}

TEST(SampleStore, MmapFileMatchesInMemory)
{
    auto gen = makeGen();
    auto bytes = sample::packFromGen(gen);

    std::string path = "sample_test_pack.mjk";
    {
        sample::PackReader mem;
        ASSERT_TRUE(mem.openMemory(bytes));
        // Write the identical bytes and mmap them back.
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);

        sample::PackReader file;
        ASSERT_TRUE(file.openFile(path));
        ASSERT_EQ(file.count(), mem.count());
        EXPECT_EQ(file.sizeBytes(), mem.sizeBytes());
        for (size_t i = 0; i < file.count(); ++i) {
            iss::ArchState a, b;
            mem::PhysMem ma(0x80000000, 1 << 26);
            mem::PhysMem mb(0x80000000, 1 << 26);
            ASSERT_TRUE(mem.restoreInto(i, a, ma));
            ASSERT_TRUE(file.restoreInto(i, b, mb));
            EXPECT_EQ(a.pc, b.pc);
            EXPECT_EQ(a.x[10], b.x[10]);
        }
    }
    std::remove(path.c_str());
}

TEST(SampleStore, RejectsGarbageAndTruncation)
{
    sample::PackReader r;
    EXPECT_FALSE(r.openMemory(std::vector<uint8_t>(64, 0xab)));
    EXPECT_FALSE(r.openMemory({}));

    const auto good = sample::packFromGen(makeGen());
    auto bytes = good;
    bytes.resize(bytes.size() / 2); // chop the page pool
    EXPECT_FALSE(r.openMemory(std::move(bytes)));
    EXPECT_FALSE(r.openFile("/nonexistent/pack.mjk"));

    // Crafted counts whose products or sums wrap 64 bits into a small,
    // plausible size must be rejected, not trusted.
    auto patched = [&](size_t off, uint64_t x) {
        auto v = good;
        std::memcpy(v.data() + off, &x, 8);
        return v;
    };
    // Byte offsets of the patched fields (store.h layout).
    constexpr size_t N_CHECKPOINTS = 16, N_POOL_PAGES = 40;
    constexpr size_t TABLE0 = 48; // first table entry
    constexpr size_t ARCH_OFF = TABLE0 + 16, ENTRY_OFF = TABLE0 + 24,
                     N_ENTRIES = TABLE0 + 32;
    // 5 * n wraps to 4: the table "fits" in 80 bytes.
    EXPECT_FALSE(r.openMemory(patched(N_CHECKPOINTS, 0x3333333333333334ULL)));
    EXPECT_FALSE(r.openMemory(patched(N_CHECKPOINTS, ~0ULL)));
    // n * 4096 wraps to 0.
    EXPECT_FALSE(r.openMemory(patched(N_POOL_PAGES, 1ULL << 52)));
    EXPECT_FALSE(r.openMemory(patched(N_POOL_PAGES, ~0ULL)));

    // Per-entry fields are checked at restore time; a rejected restore
    // leaves the target memory as it was.
    struct Bad
    {
        size_t off;
        uint64_t value;
    };
    uint64_t entry0; // checkpoint 0's first {base, poolIdx} entry
    std::memcpy(&entry0, good.data() + ENTRY_OFF, 8);
    for (Bad bad : {Bad{N_ENTRIES, 1ULL << 60}, Bad{N_ENTRIES, ~0ULL},
                    Bad{ARCH_OFF, ~0ULL - 8}, Bad{ENTRY_OFF, ~0ULL - 8},
                    Bad{entry0, 0x80000001}, Bad{entry0, 0x1000},
                    Bad{entry0, 0x80000000 + (1ULL << 26)},
                    Bad{entry0 + 8, ~0ULL}}) {
        sample::PackReader p;
        ASSERT_TRUE(p.openMemory(patched(bad.off, bad.value)));
        iss::ArchState st;
        mem::PhysMem m(0x80000000, 1 << 26);
        m.write(0x80000000, 8, 42);
        EXPECT_FALSE(p.restoreInto(0, st, m)) << bad.off;
        EXPECT_EQ(m.allocatedPages(), 1u) << bad.off;
    }
}

TEST(SampleEngine, SliceBlobRoundtrip)
{
    sample::SliceResult s;
    s.ok = true;
    s.cycles = 123456;
    s.instrs = 7890;
    s.counters.set("core0.cycles", 123456);
    s.counters.set("core0.topdown.retiring", 42);
    s.counters.set("mem.l2.hits", 17);

    sample::SliceResult d;
    ASSERT_TRUE(sample::decodeSlice(sample::encodeSlice(s), d));
    EXPECT_EQ(d.ok, s.ok);
    EXPECT_EQ(d.cycles, s.cycles);
    EXPECT_EQ(d.instrs, s.instrs);
    EXPECT_EQ(d.counters, s.counters);

    sample::SliceResult bad;
    EXPECT_FALSE(sample::decodeSlice({1, 2, 3}, bad));

    // A key length of ~0 must fail the decode, not run past the blob.
    const auto good = sample::encodeSlice(s);
    auto blob = good;
    const uint32_t huge = ~0U;
    std::memcpy(blob.data() + 36, &huge, 4); // first key's length
    EXPECT_FALSE(sample::decodeSlice(blob, bad));

    // A short pipe read (any cut) and a padded blob are rejected, and
    // the output is left as it was.
    bad.cycles = 99;
    for (size_t len = 0; len < good.size(); ++len) {
        std::vector<uint8_t> cut(good.begin(),
                                 good.begin() + static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(sample::decodeSlice(cut, bad)) << "cut at " << len;
    }
    auto padded = good;
    padded.push_back(0);
    EXPECT_FALSE(sample::decodeSlice(padded, bad));
    EXPECT_EQ(bad.cycles, 99u);
}

TEST(SampleEngine, WorkerCountInvariance)
{
    // The acceptance gate: weighted IPC and the merged top-down stack
    // must be byte-identical for any worker count on the same pack.
    auto gen = makeGen();
    auto pack = makePack(gen);

    sample::SampleConfig cfg;
    cfg.measureInsts = 3'000;
    cfg.maxCycles = 5'000'000;

    cfg.workers = 1;
    auto base = sample::runSampled(pack, cfg);
    ASSERT_TRUE(base.allOk());
    ASSERT_GT(base.weightedInstrs, 0u);
    EXPECT_TRUE(base.stack.sumsExactly());

    for (unsigned w : {2u, 3u, 8u}) {
        cfg.workers = w;
        auto rep = sample::runSampled(pack, cfg);
        ASSERT_TRUE(rep.allOk()) << w << " workers";
        // Byte-identical reduction: serialized counters and the
        // rendered stack, not just the scalar IPC.
        EXPECT_EQ(rep.weighted.toJson(), base.weighted.toJson())
            << w << " workers";
        EXPECT_EQ(rep.weightedCycles, base.weightedCycles);
        EXPECT_EQ(rep.weightedInstrs, base.weightedInstrs);
        EXPECT_EQ(rep.stack.table("t"), base.stack.table("t"));
        for (size_t i = 0; i < rep.slices.size(); ++i) {
            EXPECT_EQ(rep.slices[i].cycles, base.slices[i].cycles);
            EXPECT_EQ(rep.slices[i].counters, base.slices[i].counters);
        }
    }
}

TEST(SampleEngine, WeightedStackKeepsExactSum)
{
    auto pack = makePack(makeGen());
    sample::SampleConfig cfg;
    cfg.workers = 2;
    cfg.measureInsts = 3'000;
    auto rep = sample::runSampled(pack, cfg);
    ASSERT_TRUE(rep.allOk());
    // Integer weighting is linear, so the bucket partition survives:
    // sum_i w_i * (buckets_i) == sum_i w_i * cycles_i, exactly.
    EXPECT_TRUE(rep.stack.sumsExactly());
    EXPECT_EQ(rep.stack.cycles, rep.weightedCycles);
    EXPECT_EQ(rep.stack.instrs, rep.weightedInstrs);
    EXPECT_GT(rep.weightedIpc(), 0.0);
}

TEST(SampleEngine, CrashIsolation)
{
    // A dying worker loses its own slice and nothing else.
    auto pack = makePack(makeGen());
    ASSERT_GE(pack.count(), 2u);

    sample::SampleConfig cfg;
    cfg.workers = 2;
    cfg.measureInsts = 3'000;
    cfg.crashSliceForTest = 0;
    auto rep = sample::runSampled(pack, cfg);
    EXPECT_EQ(rep.failures, 1u);
    EXPECT_FALSE(rep.slices[0].ok);
    for (size_t i = 1; i < rep.slices.size(); ++i)
        EXPECT_TRUE(rep.slices[i].ok) << "slice " << i;
    // The reduction proceeds over the surviving slices.
    EXPECT_GT(rep.weightedInstrs, 0u);
    EXPECT_TRUE(rep.stack.sumsExactly());
}

TEST(SampleEngine, WarmupAdvancesMeasurementPoint)
{
    auto gen = makeGen();
    auto pack = makePack(gen);

    sample::SampleConfig cold;
    cold.measureInsts = 3'000;
    auto a = sample::runSlice(pack, 0, cold);
    ASSERT_TRUE(a.ok);

    sample::SampleConfig warm = cold;
    warm.warmupInsts = 5'000;
    auto b = sample::runSlice(pack, 0, warm);
    ASSERT_TRUE(b.ok);

    // Both measure a full window; the warmed slice starts 5000
    // instructions later, so the windows differ.
    EXPECT_GE(a.instrs, cold.measureInsts);
    EXPECT_GE(b.instrs, cold.measureInsts);
    EXPECT_NE(a.counters, b.counters);
}

TEST(SampleEngine, ShortWindowFails)
{
    // The last checkpoint sits closer than measureInsts to the
    // program's end: its window ends at the exit, short of the count,
    // so the slice fails and the reduction leaves it out instead of
    // weighting a short window as a full one.
    auto gen = makeGen();
    auto pack = makePack(gen);
    ASSERT_GE(pack.count(), 2u);
    size_t last = 0;
    for (size_t i = 1; i < pack.count(); ++i)
        if (pack.instCount(i) > pack.instCount(last))
            last = i;
    const InstCount tail = gen.totalInsts - pack.instCount(last);

    sample::SampleConfig cfg;
    cfg.workers = 2;
    cfg.measureInsts = tail + 500; // others end >= 19k before the exit
    auto rep = sample::runSampled(pack, cfg);
    EXPECT_EQ(rep.failures, 1u);
    uint64_t wInstrs = 0;
    for (size_t i = 0; i < pack.count(); ++i) {
        const auto &s = rep.slices[i];
        EXPECT_EQ(s.ok, i != last) << "slice " << i;
        EXPECT_EQ(s.instrs >= cfg.measureInsts, i != last) << "slice " << i;
        if (s.ok)
            wInstrs += pack.weightNum(i) * s.instrs;
    }
    EXPECT_GT(rep.slices[last].instrs, 0u) << "what ran is reported";
    EXPECT_EQ(rep.weightedInstrs, wInstrs);

    // A warmup that reaches the exit fails the slice too; so does a
    // window cut by maxCycles.
    sample::SampleConfig warm;
    warm.warmupInsts = tail + 500;
    warm.measureInsts = 1'000;
    EXPECT_FALSE(sample::runSlice(pack, last, warm).ok);
    sample::SampleConfig capped;
    capped.measureInsts = 3'000;
    capped.maxCycles = 200;
    auto cut = sample::runSlice(pack, 0, capped);
    EXPECT_FALSE(cut.ok);
    EXPECT_LT(cut.instrs, capped.measureInsts);
}

/** The paper's slice protocol written out by hand: restore into a
 *  fresh SoC, run @p warm instructions, then measure @p measure more;
 *  the result covers the measured window only. */
sample::SliceResult
handSlice(const sample::PackReader &pack, size_t i, InstCount warm,
          InstCount measure, Cycle maxCycles)
{
    sample::SliceResult r;
    xs::Soc soc(xs::CoreConfig::nh());
    if (!pack.restoreInto(i, soc.core(0).oracleState(), soc.system().dram))
        return r;
    auto snapshot = [&] {
        obs::CounterGroup root;
        obs::collectSoc(root, soc);
        obs::CounterSnapshot s;
        root.flattenInto(s, "");
        return s;
    };
    soc.runUntilInstrs(warm, maxCycles);
    Cycle c0 = soc.core(0).perf().cycles;
    InstCount n0 = soc.core(0).perf().instrs;
    auto before = snapshot();
    soc.runUntilInstrs(n0 + measure, maxCycles);
    r.counters = snapshot().delta(before);
    r.cycles = soc.core(0).perf().cycles - c0;
    r.instrs = soc.core(0).perf().instrs - n0;
    r.ok = true;
    return r;
}

TEST(SampleEngine, DetailedWarmupMatchesHandLoop)
{
    // runSlice and runSampled must measure exactly the window the
    // hand-written restore -> warm -> measure loop measures, with and
    // without warmup, in-process and forked.
    auto pack = makePack(makeGen());
    ASSERT_GE(pack.count(), 2u);

    for (InstCount warm : {0u, 5'000u}) {
        sample::SampleConfig cfg;
        cfg.warmupInsts = warm;
        cfg.measureInsts = 3'000;
        cfg.maxCycles = 5'000'000;
        std::vector<sample::SliceResult> hand;
        uint64_t wCycles = 0, wInstrs = 0;
        for (size_t i = 0; i < pack.count(); ++i) {
            hand.push_back(handSlice(pack, i, warm, cfg.measureInsts,
                                     cfg.maxCycles));
            ASSERT_TRUE(hand.back().ok);
            wCycles += pack.weightNum(i) * hand.back().cycles;
            wInstrs += pack.weightNum(i) * hand.back().instrs;
        }

        auto one = sample::runSlice(pack, 1, cfg);
        ASSERT_TRUE(one.ok);
        EXPECT_EQ(one.cycles, hand[1].cycles) << "warm " << warm;
        EXPECT_EQ(one.instrs, hand[1].instrs) << "warm " << warm;
        EXPECT_EQ(one.counters, hand[1].counters) << "warm " << warm;

        for (unsigned w : {1u, 2u}) {
            cfg.workers = w;
            auto rep = sample::runSampled(pack, cfg);
            ASSERT_TRUE(rep.allOk()) << w << " workers";
            for (size_t i = 0; i < pack.count(); ++i) {
                const auto &s = rep.slices[i];
                EXPECT_EQ(s.cycles, hand[i].cycles)
                    << "warm " << warm << " slice " << i;
                EXPECT_EQ(s.instrs, hand[i].instrs)
                    << "warm " << warm << " slice " << i;
                EXPECT_EQ(s.counters, hand[i].counters)
                    << "warm " << warm << " slice " << i;
                EXPECT_GE(s.instrs, cfg.measureInsts);
            }
            EXPECT_EQ(rep.weightedCycles, wCycles);
            EXPECT_EQ(rep.weightedInstrs, wInstrs);
            EXPECT_TRUE(rep.stack.sumsExactly());
            EXPECT_EQ(rep.stack.cycles, wCycles);
        }
    }
}

TEST(SampleEngine, InProcessAndForkedSliceAgree)
{
    // The fork fallback path (pipe/fork failure) runs slices
    // in-process; both paths must produce identical results for the
    // invariance guarantee to hold under fork pressure.
    auto pack = makePack(makeGen());
    sample::SampleConfig cfg;
    cfg.measureInsts = 3'000;

    auto direct = sample::runSlice(pack, 0, cfg);
    ASSERT_TRUE(direct.ok);

    cfg.workers = 2; // forked evaluation of the same slice
    auto rep = sample::runSampled(pack, cfg);
    ASSERT_TRUE(rep.slices[0].ok);
    EXPECT_EQ(rep.slices[0].cycles, direct.cycles);
    EXPECT_EQ(rep.slices[0].instrs, direct.instrs);
    EXPECT_EQ(rep.slices[0].counters, direct.counters);
}

} // namespace
