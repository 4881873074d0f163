#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "mem/physmem.h"

namespace {

using namespace minjie;
using mem::PhysMem;

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
    std::vector<uint8_t> src(4096);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<uint8_t>(i ^ 0x5a);
    const std::vector<uint8_t> orig = src;
    pm.mapPage(0x80002000, src.data());
    pm.write(0x80000000, 8, 1);

    // Untouched, the page is already allocated and visited through its
    // source, in address order.
    EXPECT_EQ(pm.allocatedPages(), 2u);
    std::vector<Addr> bases;
    pm.forEachPage([&](Addr base, const uint8_t *d) {
        bases.push_back(base);
        if (base == 0x80002000) {
            EXPECT_EQ(d, src.data());
        }
    });
    EXPECT_EQ(bases, (std::vector<Addr>{0x80000000, 0x80002000}));

    // A read copies it into a private page; writes never reach the
    // source.
    uint64_t v = 0;
    ASSERT_TRUE(pm.read(0x80002008, 8, v));
    uint64_t want;
    std::memcpy(&want, orig.data() + 8, 8);
    EXPECT_EQ(v, want);
    uint8_t *host = pm.hostPage(0x80002000);
    ASSERT_NE(host, nullptr);
    EXPECT_NE(host, src.data());
    ASSERT_TRUE(pm.write(0x80002008, 8, 0x1122334455667788ULL));
    EXPECT_EQ(src, orig);
    ASSERT_TRUE(pm.read(0x80002008, 8, v));
    EXPECT_EQ(v, 0x1122334455667788ULL);
    EXPECT_EQ(pm.hostPage(0x80002000), host) << "pointer moved";
    EXPECT_EQ(pm.allocatedPages(), 2u);

    // Mapping over a private page copies at once; clear() drops both.
    pm.mapPage(0x80002000, src.data());
    ASSERT_TRUE(pm.read(0x80002008, 8, v));
    EXPECT_EQ(v, want);
    pm.mapPage(0x80005000, src.data());
    pm.clear();
    EXPECT_EQ(pm.allocatedPages(), 0u);
    ASSERT_TRUE(pm.read(0x80005000, 8, v));
    EXPECT_EQ(v, 0u);
}

} // namespace
