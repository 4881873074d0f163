/**
 * @file
 * Mutation harness for every decoder of bytes from disk or a pipe: the
 * arch blob, `.mjk` packs, slice and campaign job blobs, `.mjt`
 * artifacts and `.mjc` corpus files. Each decoder is fed every truncation of a valid input
 * (every length below 4 KiB, strided above) and seeded flips of 1-4
 * bits. A decoder may accept a flipped input — a flipped page byte
 * still makes a well-formed pack — but it must not crash or read out
 * of bounds (the ASan and UBSan CI legs run this tier-1 binary), and a
 * rejected restore must leave its target as it was.
 */

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/corpus.h"
#include "checkpoint/checkpoint.h"
#include "checkpoint/generator.h"
#include "common/rng.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "obs/serialize.h"
#include "sample/engine.h"
#include "sample/store.h"
#include "workload/shrinkable.h"

namespace {

using namespace minjie;
namespace wl = minjie::workload;

/** Truncation lengths of a @p size-byte input: every length below
 *  4 KiB, then every 61st. */
std::vector<size_t>
cuts(size_t size)
{
    std::vector<size_t> v;
    for (size_t n = 0; n < size; n += n < 4096 ? 1 : 61)
        v.push_back(n);
    return v;
}

/** Call @p f on @p count copies of @p good, each with 1-4 seeded
 *  random bits flipped. */
template <typename Buf, typename F>
void
forEachFlip(const Buf &good, unsigned count, uint64_t seed, F f)
{
    Rng rng(seed);
    for (unsigned i = 0; i < count; ++i) {
        Buf m = good;
        for (uint64_t k = 1 + rng.below(4); k > 0; --k) {
            uint64_t bit = rng.below(good.size() * 8);
            m[bit / 8] = static_cast<typename Buf::value_type>(
                m[bit / 8] ^ (1 << (bit % 8)));
        }
        f(m);
    }
}

template <typename Buf>
Buf
prefix(const Buf &good, size_t len)
{
    return Buf(good.begin(), good.begin() + static_cast<ptrdiff_t>(len));
}

/** A small pack: coremark at a short interval, several checkpoints. */
const std::vector<uint8_t> &
goodPack()
{
    static const auto bytes = sample::packFromGen(
        checkpoint::generateCheckpoints(wl::coremarkProxy(20), 2'000, 4,
                                        100'000));
    return bytes;
}

/** Counters of one real slice: the whole SoC counter tree. */
const obs::CounterSnapshot &
realCounters()
{
    static const auto counters = [] {
        sample::PackReader pack;
        EXPECT_TRUE(pack.openMemory(goodPack()));
        sample::SampleConfig cfg;
        cfg.measureInsts = 500;
        auto r = sample::runSlice(pack, 0, cfg);
        EXPECT_TRUE(r.ok);
        return r.counters;
    }();
    return counters;
}

TEST(Mutation, ArchBlob)
{
    iss::ArchState src;
    src.reset(0x80000000, 0);
    Rng rng(1);
    for (auto &x : src.x)
        x = rng.next();
    for (auto &f : src.f)
        f = rng.next();
    std::vector<uint8_t> good;
    checkpoint::serializeArch(good, src);

    iss::ArchState sentinel;
    sentinel.reset(0x42, 3);
    std::vector<uint8_t> sentinelBlob;
    checkpoint::serializeArch(sentinelBlob, sentinel);
    auto untouched = [&](const iss::ArchState &st) {
        std::vector<uint8_t> v;
        checkpoint::serializeArch(v, st);
        return v == sentinelBlob;
    };

    for (size_t len : cuts(good.size())) {
        iss::ArchState st = sentinel;
        EXPECT_FALSE(checkpoint::restoreArch(good.data(), len, st)) << len;
        EXPECT_TRUE(untouched(st)) << len;
    }
    unsigned accepted = 0;
    forEachFlip(good, 4000, 2, [&](const std::vector<uint8_t> &m) {
        iss::ArchState st = sentinel;
        if (checkpoint::restoreArch(m.data(), m.size(), st))
            ++accepted;
        else
            EXPECT_TRUE(untouched(st));
    });
    EXPECT_GT(accepted, 0u);
}

/** Open @p bytes and restore every checkpoint into a memory holding
 *  one sentinel page; run 2k NEMU instructions from each accepted
 *  restore. @return restores accepted. */
unsigned
restoreAndRun(const std::vector<uint8_t> &bytes)
{
    sample::PackReader pack;
    if (!pack.openMemory(bytes))
        return 0;
    unsigned accepted = 0;
    for (size_t i = 0; i < pack.count() && i < 8; ++i) {
        iss::System sys(32);
        sys.dram.write(0x80050000, 8, 9);
        nemu::Nemu nemu(sys.bus, sys.dram, 0, 0x80000000);
        nemu.state().x[5] = 7;
        if (!pack.restoreInto(i, nemu.state(), sys.dram)) {
            EXPECT_EQ(nemu.state().x[5], 7u);
            EXPECT_EQ(nemu.state().pc, 0x80000000u);
            EXPECT_EQ(sys.dram.allocatedPages(), 1u);
            uint64_t v = 0;
            sys.dram.read(0x80050000, 8, v);
            EXPECT_EQ(v, 9u);
            continue;
        }
        ++accepted;
        nemu.flushUopCache();
        nemu.setHaltFn([&] { return sys.simctrl.exited(); });
        nemu.run(2'000);
    }
    return accepted;
}

TEST(Mutation, Pack)
{
    const auto &good = goodPack();
    ASSERT_GE(restoreAndRun(good), 2u);
    // The pool ends the file, so every cut leaves a page short.
    for (size_t len : cuts(good.size())) {
        sample::PackReader pack;
        EXPECT_FALSE(pack.openMemory(prefix(good, len))) << len;
    }
    unsigned accepted = 0;
    forEachFlip(good, 600, 3, [&](const std::vector<uint8_t> &m) {
        accepted += restoreAndRun(m);
    });
    EXPECT_GT(accepted, 0u);
}

TEST(Mutation, SliceBlob)
{
    sample::SliceResult s;
    s.ok = true;
    s.cycles = 4321;
    s.instrs = 500;
    s.counters = realCounters();
    const auto good = sample::encodeSlice(s);
    sample::SliceResult back;
    ASSERT_TRUE(sample::decodeSlice(good, back));
    EXPECT_EQ(back.counters, s.counters);

    for (size_t len : cuts(good.size()))
        EXPECT_FALSE(sample::decodeSlice(prefix(good, len), back)) << len;
    forEachFlip(good, 4000, 4, [&](const std::vector<uint8_t> &m) {
        sample::SliceResult r;
        sample::decodeSlice(m, r);
    });
}

TEST(Mutation, JobBlob)
{
    campaign::CampaignConfig cfg;
    cfg.nInsts = 100;
    cfg.difftestPct = 100;
    cfg.perf = true;
    campaign::JobResult jr = campaign::runJob(cfg, 3);
    jr.failed = true;
    jr.signature = "rd:alu:xor";
    jr.detail = "mutation harness";
    const auto good = campaign::encodeJob(jr);
    campaign::JobResult back;
    ASSERT_TRUE(campaign::decodeJob(good, back));
    EXPECT_EQ(back.perf, jr.perf);
    EXPECT_GT(back.perf.get("dut.cycles"), 0u);

    campaign::JobResult sentinel;
    sentinel.detail = "untouched";
    for (size_t len : cuts(good.size())) {
        campaign::JobResult r = sentinel;
        EXPECT_FALSE(campaign::decodeJob(prefix(good, len), r)) << len;
        EXPECT_EQ(r.detail, "untouched") << len;
    }
    auto padded = good;
    padded.push_back(0);
    EXPECT_FALSE(campaign::decodeJob(padded, back));
    forEachFlip(good, 4000, 9, [&](const std::vector<uint8_t> &m) {
        campaign::JobResult r;
        campaign::decodeJob(m, r);
    });
}

TEST(Mutation, Mjt)
{
    obs::RunArtifact art;
    art.runLabel = "coremark@nh";
    art.counters = realCounters();
    Rng rng(5);
    for (unsigned i = 0; i < 64; ++i) {
        obs::TraceEvent e{};
        e.cycle = i * 3;
        e.pc = 0x80000000 + 4 * rng.below(1024);
        e.arg0 = rng.next();
        e.arg1 = static_cast<uint32_t>(rng.next());
        e.kind = obs::Ev::Commit;
        e.hart = static_cast<uint8_t>(i % 2);
        e.aux = static_cast<uint16_t>(i);
        art.events.push_back(e);
    }
    const std::string good = obs::serializeMjt(art);
    obs::RunArtifact back;
    ASSERT_TRUE(obs::parseMjt(good, back));
    EXPECT_EQ(back, art);

    for (size_t len : cuts(good.size()))
        EXPECT_FALSE(obs::parseMjt(prefix(good, len), back)) << len;
    forEachFlip(good, 4000, 6, [&](const std::string &m) {
        obs::RunArtifact r;
        obs::parseMjt(m, r);
    });
}

TEST(Mutation, CorpusEntry)
{
    Rng rng(7);
    wl::RandomSpec spec;
    spec.nInsts = 120;
    spec.withFp = true;
    spec.withRvc = true;
    campaign::CorpusEntry e;
    e.seed = 7;
    e.signature = "xreg:alu:xor";
    e.note = "mutation harness";
    e.program = wl::randomShrinkable(rng, spec);
    const std::string good = e.serialize();
    campaign::CorpusEntry back;
    ASSERT_TRUE(campaign::CorpusEntry::deserialize(good, back));

    for (size_t len : cuts(good.size())) {
        campaign::CorpusEntry r;
        campaign::CorpusEntry::deserialize(prefix(good, len), r);
    }
    forEachFlip(good, 4000, 8, [&](const std::string &m) {
        campaign::CorpusEntry r;
        campaign::CorpusEntry::deserialize(m, r);
    });
}

} // namespace
