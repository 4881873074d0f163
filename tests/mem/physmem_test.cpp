#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "mem/physmem.h"

namespace {

using namespace minjie;
using mem::PhysMem;

/** A page-sized source buffer kept alive by its own shared owner. */
std::shared_ptr<std::vector<uint8_t>>
sourcePage(uint8_t fill = 0)
{
    return std::make_shared<std::vector<uint8_t>>(PhysMem::PAGE_SIZE, fill);
}

/** Map the one page @p src at @p base. */
void
mapPage(PhysMem &pm, Addr base,
        const std::shared_ptr<std::vector<uint8_t>> &src)
{
    pm.map(base, src->data(), src->size(), src);
}

TEST(PhysMem, ReadWriteAllSizes)
{
    PhysMem pm(0x80000000, 1 << 20);
    for (unsigned size : {1u, 2u, 4u, 8u}) {
        uint64_t wrote = 0x1122334455667788ULL;
        ASSERT_TRUE(pm.write(0x80000100, size, wrote));
        uint64_t got = ~0ULL;
        ASSERT_TRUE(pm.read(0x80000100, size, got));
        uint64_t mask = size == 8 ? ~0ULL : ((1ULL << (size * 8)) - 1);
        EXPECT_EQ(got, wrote & mask) << size;
    }
}

TEST(PhysMem, OutOfRangeRejected)
{
    PhysMem pm(0x80000000, 4096);
    uint64_t v;
    EXPECT_FALSE(pm.read(0x7fffffff, 1, v));
    EXPECT_FALSE(pm.read(0x80001000, 1, v));
    EXPECT_FALSE(pm.read(0x80000ffd, 8, v)); // straddles the end
    EXPECT_TRUE(pm.read(0x80000ff8, 8, v));
}

TEST(PhysMem, PageCrossingAccess)
{
    PhysMem pm(0x80000000, 1 << 20);
    // 8-byte write straddling a 4K page boundary.
    ASSERT_TRUE(pm.write(0x80000ffc, 8, 0xaabbccdd11223344ULL));
    uint64_t got;
    ASSERT_TRUE(pm.read(0x80000ffc, 8, got));
    EXPECT_EQ(got, 0xaabbccdd11223344ULL);
    // The two halves live on different pages.
    pm.read(0x80001000, 4, got);
    EXPECT_EQ(got, 0xaabbccddULL);
}

TEST(PhysMem, SparseAllocation)
{
    PhysMem pm(0x80000000, 1ULL << 32); // 4 GB space
    EXPECT_EQ(pm.allocatedPages(), 0u);
    pm.write(0x80000000, 8, 1);
    pm.write(0x80000000 + (1ULL << 30), 8, 2); // 1 GB away
    EXPECT_EQ(pm.allocatedPages(), 2u);
    uint64_t v;
    pm.read(0x80000000 + (1ULL << 30), 8, v);
    EXPECT_EQ(v, uint64_t{2});
}

TEST(PhysMem, UntouchedReadsZero)
{
    PhysMem pm(0x80000000, 1 << 20);
    uint64_t v = ~0ULL;
    ASSERT_TRUE(pm.read(0x80055000, 8, v));
    EXPECT_EQ(v, 0u);
}

TEST(PhysMem, LoadBulkAndIterate)
{
    PhysMem pm(0x80000000, 1 << 20);
    std::vector<uint8_t> blob(10000);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<uint8_t>(i * 7);
    pm.load(0x80000800, blob.data(), blob.size());

    uint64_t v;
    pm.read(0x80000800 + 9999, 1, v);
    EXPECT_EQ(v, static_cast<uint8_t>(9999 * 7));

    size_t pages = 0;
    pm.forEachPage([&](Addr, const uint8_t *) { ++pages; });
    EXPECT_EQ(pages, pm.allocatedPages());

    pm.clear();
    EXPECT_EQ(pm.allocatedPages(), 0u);
    pm.read(0x80000800, 1, v);
    EXPECT_EQ(v, 0u);

    // Page-chunked load() against a byte-at-a-time reference: an
    // unaligned start, a tail crossing into the next page, and a blob
    // spanning several whole pages.
    struct Case
    {
        Addr addr;
        size_t len;
    };
    for (Case c : {Case{0x80000003, 100}, Case{0x80000ff0, 40},
                   Case{0x80001234, 3 * 4096 + 517}}) {
        std::vector<uint8_t> src(c.len);
        for (size_t i = 0; i < c.len; ++i)
            src[i] = static_cast<uint8_t>(i * 131 + 17);
        PhysMem bulk(0x80000000, 1 << 20), ref(0x80000000, 1 << 20);
        bulk.write(c.addr - 1, 1, 0xee); // bytes around the range
        ref.write(c.addr - 1, 1, 0xee);  // must survive the load
        bulk.load(c.addr, src.data(), src.size());
        for (size_t i = 0; i < c.len; ++i)
            ref.write(c.addr + i, 1, src[i]);
        EXPECT_EQ(bulk.allocatedPages(), ref.allocatedPages())
            << std::hex << c.addr;
        std::vector<std::pair<Addr, std::vector<uint8_t>>> a, b;
        bulk.forEachPage([&](Addr base, const uint8_t *d) {
            a.emplace_back(base, std::vector<uint8_t>(d, d + 4096));
        });
        ref.forEachPage([&](Addr base, const uint8_t *d) {
            b.emplace_back(base, std::vector<uint8_t>(d, d + 4096));
        });
        EXPECT_EQ(a, b) << std::hex << c.addr;
    }
}

TEST(PhysMem, MappedPageCopiesOnFirstTouch)
{
    PhysMem pm(0x80000000, 1 << 20);
    auto srcOwner = sourcePage();
    std::vector<uint8_t> &src = *srcOwner;
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<uint8_t>(i ^ 0x5a);
    const std::vector<uint8_t> orig = src;
    mapPage(pm, 0x80002000, srcOwner);
    pm.write(0x80000000, 8, 1);

    // Untouched, the page is already allocated and visited through its
    // source, in address order.
    EXPECT_EQ(pm.allocatedPages(), 2u);
    auto visitedAt = [&pm](Addr at) {
        const uint8_t *seen = nullptr;
        pm.forEachPage([&](Addr base, const uint8_t *d) {
            if (base == at)
                seen = d;
        });
        return seen;
    };
    std::vector<Addr> bases;
    pm.forEachPage([&](Addr base, const uint8_t *) {
        bases.push_back(base);
    });
    EXPECT_EQ(bases, (std::vector<Addr>{0x80000000, 0x80002000}));
    EXPECT_EQ(visitedAt(0x80002000), src.data());

    // A read serves the source in place: nothing is copied.
    uint64_t v = 0;
    ASSERT_TRUE(pm.read(0x80002008, 8, v));
    uint64_t want;
    std::memcpy(&want, orig.data() + 8, 8);
    EXPECT_EQ(v, want);
    EXPECT_EQ(visitedAt(0x80002000), src.data()) << "a read copied";

    // readPage() aliases the source and copies nothing; hostPage()
    // copies the page, which copies() and lastCopied() report, and
    // readPage() then hands out that private copy. Writes land in it
    // and never reach the source.
    EXPECT_EQ(pm.readPage(0x80002010), src.data());
    EXPECT_EQ(pm.copies(), 0u);
    EXPECT_EQ(pm.mappedPages(), 1u);
    uint8_t *host = pm.hostPage(0x80002000);
    ASSERT_NE(host, nullptr);
    EXPECT_NE(host, src.data());
    EXPECT_EQ(std::memcmp(host, orig.data(), 4096), 0);
    EXPECT_EQ(pm.copies(), 1u);
    EXPECT_EQ(pm.lastCopied(), 0x80002000u);
    EXPECT_EQ(pm.readPage(0x80002000), host);
    EXPECT_EQ(visitedAt(0x80002000), host);
    ASSERT_TRUE(pm.write(0x80002008, 8, 0x1122334455667788ULL));
    EXPECT_EQ(src, orig);
    ASSERT_TRUE(pm.read(0x80002008, 8, v));
    EXPECT_EQ(v, 0x1122334455667788ULL);
    EXPECT_EQ(pm.hostPage(0x80002000), host) << "pointer moved";
    EXPECT_EQ(pm.allocatedPages(), 2u);

    // The first write copies a mapped page; hostPage() also returns a
    // private page.
    mapPage(pm, 0x80003000, srcOwner);
    ASSERT_TRUE(pm.write(0x80003010, 1, 0xff));
    EXPECT_EQ(src, orig);
    EXPECT_NE(visitedAt(0x80003000), src.data());
    ASSERT_TRUE(pm.read(0x80003008, 8, v));
    EXPECT_EQ(v, want);
    mapPage(pm, 0x80004000, srcOwner);
    uint8_t *own = pm.hostPage(0x80004000);
    ASSERT_NE(own, nullptr);
    EXPECT_NE(own, src.data());
    EXPECT_EQ(std::memcmp(own, orig.data(), 4096), 0);

    // Mapping over a private page copies at once.
    mapPage(pm, 0x80002000, srcOwner);
    EXPECT_EQ(pm.hostPage(0x80002000), host) << "pointer moved";
    ASSERT_TRUE(pm.read(0x80002008, 8, v));
    EXPECT_EQ(v, want);

    // Mapping over a page read in place serves the new bytes, even
    // though the read left its source in the page cache; an alias of
    // the old source is stale, so copies() moves.
    auto other = sourcePage(0x33);
    mapPage(pm, 0x80005000, srcOwner);
    ASSERT_TRUE(pm.read(0x80005008, 8, v));
    EXPECT_EQ(v, want);
    const uint64_t copies = pm.copies();
    mapPage(pm, 0x80005000, other);
    EXPECT_EQ(pm.copies(), copies + 1);
    EXPECT_EQ(pm.lastCopied(), 0x80005000u);
    ASSERT_TRUE(pm.read(0x80005008, 8, v));
    EXPECT_EQ(v, 0x3333333333333333ULL);

    // clear() drops pages and aliases alike, cached ones included.
    pm.clear();
    EXPECT_EQ(pm.allocatedPages(), 0u);
    ASSERT_TRUE(pm.read(0x80005008, 8, v));
    EXPECT_EQ(v, 0u);
}

TEST(PhysMem, MappedSourceOutlivesItsBuilder)
{
    // map() keeps the owner of the bytes it maps alive until clear(),
    // with one reference per range however many pages it spans; the
    // partial pages at either end are copied, not mapped.
    PhysMem pm(0x80000000, 1 << 20);
    constexpr Addr BASE = 0x80001800; // half a page in, 3 pages long
    std::weak_ptr<std::vector<uint8_t>> alive;
    {
        auto image = std::make_shared<std::vector<uint8_t>>(3 * 4096);
        for (size_t i = 0; i < image->size(); ++i)
            (*image)[i] = static_cast<uint8_t>(i * 7 + 1);
        alive = image;
        pm.map(BASE, image->data(), image->size(), image);
        EXPECT_EQ(image.use_count(), 2) << "one reference per range";
        EXPECT_EQ(pm.mappedPages(), 2u);
        EXPECT_EQ(pm.readPage(0x80002000), image->data() + 0x800);
    }
    ASSERT_FALSE(alive.expired()) << "the mapping lost its owner";
    for (Addr a = BASE; a < BASE + 3 * 4096; a += 509) {
        uint64_t v = 0;
        ASSERT_TRUE(pm.read(a, 1, v));
        EXPECT_EQ(v, static_cast<uint8_t>((a - BASE) * 7 + 1)) << a;
    }
    pm.clear();
    EXPECT_TRUE(alive.expired()) << "clear() kept the owner";
}

/** Page bases of @p pm's dirty set, ascending. */
std::vector<Addr>
dirtyBases(const PhysMem &pm)
{
    std::vector<Addr> out;
    pm.forEachDirtyPage([&](Addr base, const uint8_t *) {
        out.push_back(base);
    });
    return out;
}

TEST(PhysMem, DirtyTracking)
{
    constexpr Addr P0 = 0x80000000, P1 = 0x80001000, P2 = 0x80002000,
                   P3 = 0x80003000, P4 = 0x80004000;
    PhysMem pm(0x80000000, 1 << 20);
    auto srcOwner = sourcePage(7);
    const std::vector<uint8_t> &src = *srcOwner;
    uint64_t v = 0;

    // Only a write marks a page: a first read or readPage() allocates
    // a zero page, which reads as before, so neither marks.
    ASSERT_TRUE(pm.read(P0, 8, v));
    ASSERT_NE(pm.readPage(P1), nullptr);
    ASSERT_TRUE(pm.write(P2, 8, 1));
    EXPECT_EQ(pm.allocatedPages(), 3u);
    EXPECT_EQ(dirtyBases(pm), (std::vector<Addr>{P2}));
    EXPECT_EQ(pm.dirtyPages(), 1u);

    // Clearing empties the set and bumps the epoch.
    uint64_t e0 = pm.epoch();
    pm.clearDirty();
    EXPECT_NE(pm.epoch(), e0);
    EXPECT_EQ(pm.dirtyPages(), 0u);

    // read() and readPage() of allocated pages do not mark...
    ASSERT_TRUE(pm.read(P2, 8, v));
    ASSERT_NE(pm.readPage(P0), nullptr);
    EXPECT_TRUE(dirtyBases(pm).empty());

    // ...while every write-capable accessor does: write (also the
    // page-crossing form), load, map and hostPage.
    ASSERT_TRUE(pm.write(P0 + 0xffc, 8, ~0ULL)); // P0 and P1
    pm.load(P2 + 0xff0, src.data(), 32);         // P2 and P3
    EXPECT_EQ(dirtyBases(pm), (std::vector<Addr>{P0, P1, P2, P3}));
    pm.clearDirty();
    mapPage(pm, P4, srcOwner);
    ASSERT_NE(pm.hostPage(P1), nullptr);
    EXPECT_EQ(dirtyBases(pm), (std::vector<Addr>{P1, P4}));

    // The one-entry write cache cannot skip the mark: the same page
    // written just before and just after a clear is dirty again.
    pm.clearDirty();
    ASSERT_TRUE(pm.write(P3, 8, 1));
    pm.clearDirty();
    ASSERT_TRUE(pm.write(P3 + 8, 8, 2));
    EXPECT_EQ(dirtyBases(pm), (std::vector<Addr>{P3}));

    // A read or readPage() of a mapped page serves its source, leaving
    // the dirty set alone; the first write copies it and marks it.
    pm.clearDirty();
    PhysMem fresh(0x80000000, 1 << 20);
    mapPage(fresh, P4, srcOwner);
    mapPage(fresh, P3, srcOwner);
    fresh.clearDirty();
    ASSERT_TRUE(fresh.read(P4, 8, v));
    ASSERT_EQ(fresh.readPage(P3), src.data());
    EXPECT_EQ(fresh.dirtyPages(), 0u);
    ASSERT_TRUE(fresh.write(P4 + 8, 8, 5));
    EXPECT_EQ(dirtyBases(fresh), (std::vector<Addr>{P4}));
    EXPECT_NE(fresh.epoch(), pm.epoch()) << "epochs are per memory";

    // clear() drops the set with the pages and bumps the epoch.
    uint64_t e1 = pm.epoch();
    ASSERT_TRUE(pm.write(P0, 8, 3));
    pm.clear();
    EXPECT_EQ(pm.dirtyPages(), 0u);
    EXPECT_NE(pm.epoch(), e1);
    ASSERT_TRUE(pm.write(P0, 8, 4));
    EXPECT_EQ(dirtyBases(pm), (std::vector<Addr>{P0}));
}

} // namespace
