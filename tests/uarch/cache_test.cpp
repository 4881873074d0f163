#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "common/rng.h"
#include "uarch/hierarchy.h"

namespace {

using namespace minjie;
using namespace minjie::uarch;

MemCfg
dualCoreNhCfg()
{
    MemCfg cfg;
    cfg.l1i = {128 * 1024, 8, 1, 64, false, 8};
    cfg.l1d = {128 * 1024, 8, 2, 64, false, 16};
    cfg.l2 = {1024 * 1024, 8, 14, 64, false, 32};
    cfg.l2Private = true;
    cfg.l3 = CacheCfg{6 * 1024 * 1024, 6, 30, 64, false, 32};
    cfg.dram.mode = DramCfg::Mode::FixedAmat;
    cfg.dram.amatCycles = 200;
    return cfg;
}

TEST(Cache, HitFasterThanMiss)
{
    MemCfg cfg;
    MemHierarchy mem(cfg, 1);
    unsigned missLat = mem.load(0, 0x80001000, 0x80001000, 0);
    unsigned hitLat = mem.load(0, 0x80001000, 0x80001000, 100);
    EXPECT_GT(missLat, hitLat * 4);
    EXPECT_LE(hitLat, cfg.dtlb.hitLatency + cfg.l1d.hitLatency);
}

TEST(Cache, SpatialLocalityWithinLine)
{
    MemCfg cfg;
    MemHierarchy mem(cfg, 1);
    mem.load(0, 0x80002000, 0x80002000, 0);
    // Same 64B line: hit.
    unsigned lat = mem.load(0, 0x80002038, 0x80002038, 10);
    EXPECT_LE(lat, cfg.dtlb.hitLatency + cfg.l1d.hitLatency);
    // Next line: miss again.
    unsigned lat2 = mem.load(0, 0x80002040, 0x80002040, 20);
    EXPECT_GT(lat2, lat);
}

TEST(Cache, CapacityEviction)
{
    MemCfg cfg;
    cfg.l1d = {4 * 1024, 2, 2, 64, false, 8}; // tiny L1D
    cfg.l2 = {64 * 1024, 8, 14, 64, false, 16};
    MemHierarchy mem(cfg, 1);
    // Touch 16 KB: exceeds L1D.
    for (Addr a = 0; a < 16 * 1024; a += 64)
        mem.load(0, 0x80000000 + a, 0x80000000 + a, a);
    auto &l1 = mem.l1d(0);
    uint64_t missesBefore = l1.stats().misses;
    // Re-touch the first address: should miss L1 but hit L2.
    unsigned lat = mem.load(0, 0x80000000, 0x80000000, 1 << 20);
    EXPECT_GT(l1.stats().misses, missesBefore);
    // L2 hit: latency below a DRAM round trip.
    EXPECT_LT(lat, cfg.dram.amatCycles);
}

TEST(Cache, DualCoreWriteInvalidatesPeer)
{
    MemHierarchy mem(dualCoreNhCfg(), 2);
    const Addr a = 0x80005000;

    // Both cores read: shared in both L1Ds.
    mem.load(0, a, a, 0);
    mem.load(1, a, a, 10);
    EXPECT_TRUE(mem.l1d(0).holds(a));
    EXPECT_TRUE(mem.l1d(1).holds(a));

    // Core 0 writes: core 1's copy must be invalidated.
    mem.store(0, a, a, 20);
    EXPECT_EQ(mem.l1d(0).state(a), CohState::M);
    EXPECT_FALSE(mem.l1d(1).holds(a));
}

TEST(Cache, PeerReadDowngradesModified)
{
    MemHierarchy mem(dualCoreNhCfg(), 2);
    const Addr a = 0x80006000;
    mem.store(0, a, a, 0);
    ASSERT_EQ(mem.l1d(0).state(a), CohState::M);

    mem.load(1, a, a, 10);
    // Writer downgraded to S (with writeback), reader has S.
    EXPECT_EQ(mem.l1d(0).state(a), CohState::S);
    EXPECT_TRUE(mem.l1d(1).holds(a));
    EXPECT_GE(mem.l1d(0).stats().probesReceived, 1u);
    EXPECT_GE(mem.l1d(0).stats().writebacks, 1u);
}

TEST(Cache, ExclusiveGrantWhenSoleReader)
{
    MemHierarchy mem(dualCoreNhCfg(), 2);
    const Addr a = 0x80007000;
    mem.load(0, a, a, 0);
    // Sole reader gets E, so a subsequent write is silent (no upgrade).
    EXPECT_EQ(mem.l1d(0).state(a), CohState::E);
    uint64_t upgradesBefore = mem.l1d(0).stats().upgrades;
    mem.store(0, a, a, 10);
    EXPECT_EQ(mem.l1d(0).state(a), CohState::M);
    EXPECT_EQ(mem.l1d(0).stats().upgrades, upgradesBefore);
}

TEST(Cache, InclusiveEvictionBackInvalidates)
{
    MemCfg cfg;
    cfg.l1d = {4 * 1024, 8, 2, 64, false, 8};
    cfg.l2 = {8 * 1024, 1, 14, 64, true, 16}; // tiny direct-mapped L2
    MemHierarchy mem(cfg, 1);
    const Addr a = 0x80000000;
    mem.load(0, a, a, 0);
    ASSERT_TRUE(mem.l1d(0).holds(a));
    // Walk addresses conflicting in L2 until a's L2 line is evicted.
    for (unsigned i = 1; i <= 2; ++i)
        mem.load(0, a + i * 8 * 1024, a + i * 8 * 1024, i * 100);
    EXPECT_FALSE(mem.l1d(0).holds(a))
        << "inclusive L2 eviction must back-invalidate L1";
}

TEST(Cache, TxnLogSeesCoherenceTraffic)
{
    MemHierarchy mem(dualCoreNhCfg(), 2);
    std::vector<Transaction> txns;
    mem.setTxnLog([&](const Transaction &t) { txns.push_back(t); });

    const Addr a = 0x80009000;
    mem.load(0, a, a, 0);
    mem.store(1, a, a, 10);

    bool sawAcquire = false, sawProbe = false, sawGrant = false;
    for (const auto &t : txns) {
        if (t.kind == TxnKind::AcquireExclusive)
            sawAcquire = true;
        if (t.kind == TxnKind::ProbeInvalid)
            sawProbe = true;
        if (t.kind == TxnKind::GrantExclusive)
            sawGrant = true;
    }
    EXPECT_TRUE(sawAcquire);
    EXPECT_TRUE(sawProbe);
    EXPECT_TRUE(sawGrant);
}

TEST(Dram, FixedAmatIsFlat)
{
    DramModel dram({DramCfg::Mode::FixedAmat, 250});
    EXPECT_EQ(dram.access(0x1000, 0, false), 250u);
    EXPECT_EQ(dram.access(0x2000, 5, true), 250u);
}

TEST(Dram, DdrRowBufferHitsAreFaster)
{
    DramCfg cfg;
    cfg.mode = DramCfg::Mode::Ddr;
    cfg.channels = 1; // keep all accesses on one channel/row tracker
    DramModel dram(cfg);
    unsigned first = dram.access(0x80000000, 0, false);
    // Far-apart cycle so the channel is free; same row -> open-row hit.
    unsigned second = dram.access(0x80000040, 1000, false);
    EXPECT_LT(second, first);
    EXPECT_EQ(second, cfg.ddrRowHit);
    // Different row reopens.
    unsigned third = dram.access(0x80000000 + (1 << 14), 2000, false);
    EXPECT_GT(third, second);
}

TEST(Dram, ChannelContentionQueues)
{
    DramCfg cfg;
    cfg.mode = DramCfg::Mode::Ddr;
    cfg.channels = 1;
    DramModel dram(cfg);
    unsigned a = dram.access(0x0, 0, false);
    EXPECT_EQ(a, cfg.ddrBase);
    // Same instant, same row: queues behind the burst, then row-hits.
    unsigned b = dram.access(0x40, 0, false);
    EXPECT_EQ(b, cfg.ddrRowHit + cfg.burstCycles);
}

TEST(Cache, SameLineFollowUpDoesNotReaccessDram)
{
    MemCfg cfg;
    cfg.dram.amatCycles = 300;
    MemHierarchy mem(cfg, 1);
    unsigned first = mem.load(0, 0x80010000, 0x80010000, 0);
    unsigned second = mem.load(0, 0x80010008, 0x80010008, 1);
    EXPECT_LE(second, first);
    EXPECT_EQ(mem.dram().accesses(), 1u);
}

TEST(Cache, MshrPressureStalls)
{
    MemCfg cfg;
    cfg.l1d = {4 * 1024, 8, 2, 64, false, 2}; // only 2 MSHRs
    cfg.l2 = {8 * 1024, 8, 14, 64, false, 2};
    cfg.dram.amatCycles = 300;
    MemHierarchy mem(cfg, 1);
    // Three distinct-line misses in the same cycle: the third must wait
    // for an MSHR slot to free.
    unsigned a = mem.load(0, 0x80020000, 0x80020000, 0);
    unsigned b = mem.load(0, 0x80020040, 0x80020040, 0);
    unsigned c = mem.load(0, 0x80020080, 0x80020080, 0);
    EXPECT_GE(c, a);
    EXPECT_GT(c, b);
    EXPECT_GE(mem.l1d(0).stats().mshrStalls, 1u);
}

/** Two one-set, six-way L1s under a shared L2: the victims of L1 "a"
 *  are what the Evict transactions name. */
struct SixWayPair
{
    DramModel dram{DramCfg{}};
    Cache l2{"L2", {1 << 20, 8, 10, 64, false, 16}, nullptr, &dram};
    Cache a{"L1D.0", {6 * 64, 6, 1, 64, false, 4}, &l2, nullptr};
    Cache b{"L1D.1", {6 * 64, 6, 1, 64, false, 4}, &l2, nullptr};
    std::vector<Addr> evicted; ///< a's victims, in order

    SixWayPair()
    {
        l2.addChild(&a);
        l2.addChild(&b);
        l2.setTxnLog([this](const Transaction &t) {
            if (t.kind == TxnKind::Evict && t.cache == &a)
                evicted.push_back(t.line);
        });
    }

    static Addr line(unsigned i) { return 0x80000000 + i * 64ULL; }
};

TEST(Cache, SixWaySetEvictsExactLru)
{
    SixWayPair h;
    Cycle now = 0;
    for (unsigned i = 0; i < 6; ++i)
        h.a.access(h.line(i), false, now++);
    h.a.access(h.line(0), false, now++); // hit: 1 is now the LRU line
    h.a.access(h.line(6), false, now++); // evicts 1
    h.b.access(h.line(2), true, now++);  // peer write invalidates 2
    EXPECT_FALSE(h.a.holds(h.line(2)));
    h.a.access(h.line(7), false, now++); // fills the hole, no victim
    h.a.access(h.line(8), false, now++); // evicts 3
    h.a.access(h.line(4), true, now++);  // hit: 5 is now the LRU line
    h.a.access(h.line(9), false, now++); // evicts 5
    h.a.access(h.line(0), false, now++); // hit
    h.a.access(h.line(1), false, now++); // evicts 6
    EXPECT_EQ(h.evicted, (std::vector<Addr>{h.line(1), h.line(3),
                                            h.line(5), h.line(6)}));
}

/** A way invalidated and refilled over and over must not push the
 *  ranks of the lines beside it past their 6-bit field. */
TEST(Cache, SixWaySetRanksStayBoundedUnderChurn)
{
    SixWayPair h;
    Cycle now = 0;
    for (unsigned i = 0; i < 6; ++i)
        h.a.access(h.line(i), false, now++);
    for (unsigned k = 0; k < 200; ++k) {
        h.b.access(h.line(5), true, now++);  // invalidates 5 in a
        h.a.access(h.line(5), false, now++); // refills the same way
    }
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_TRUE(h.a.holds(h.line(i)));
    h.a.access(h.line(6), false, now++); // evicts 0, the oldest
    EXPECT_EQ(h.evicted, std::vector<Addr>{h.line(0)});
}

/** The same set against a recency list over random traffic: a's own
 *  reads and writes, and b's writes (which invalidate a's copy) and
 *  reads (which downgrade it without touching its recency). */
TEST(Cache, SixWaySetMatchesRecencyList)
{
    for (uint64_t seed = 0; seed < 16; ++seed) {
        SixWayPair h;
        Rng rng(0xca5e + seed);
        std::list<Addr> lru; // front = least recently used
        std::vector<Addr> expect;
        for (Cycle now = 0; now < 3000; ++now) {
            Addr x = h.line(static_cast<unsigned>(rng.below(10)));
            bool write = rng.chance(30);
            auto it = std::find(lru.begin(), lru.end(), x);
            if (rng.chance(75)) {
                h.a.access(x, write, now);
                if (it != lru.end()) {
                    lru.erase(it);
                } else if (lru.size() == 6) {
                    expect.push_back(lru.front());
                    lru.pop_front();
                }
                lru.push_back(x);
            } else {
                h.b.access(x, write, now);
                if (write && it != lru.end())
                    lru.erase(it);
            }
            ASSERT_EQ(h.evicted, expect) << "seed " << seed;
            for (Addr l : lru)
                ASSERT_TRUE(h.a.holds(l)) << "seed " << seed;
        }
    }
}

} // namespace
