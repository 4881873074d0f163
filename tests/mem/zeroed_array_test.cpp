/**
 * ZeroedArray and its mapping pool: an array always starts as zeros,
 * also when it gets a mapping an earlier array wrote all over; only a
 * mapping of the same page-rounded size is reused; the pool holds at
 * most its bound and unmaps the rest; a mapping of 2 MiB or more is
 * aligned to 2 MiB and unmapped when released; and a forked child
 * scrubs by its own residency, not its parent's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <vector>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fork_pool.h"
#include "common/zeroed_array.h"

namespace {

using namespace minjie;

const size_t kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));

bool
allZero(ZeroedArray<uint8_t> &a)
{
    for (uint8_t b : a)
        if (b)
            return false;
    return true;
}

/** Write the first and last byte of every @p stride-th page and of the
 *  array itself. */
void
scribble(ZeroedArray<uint8_t> &a, size_t stride = 1)
{
    for (size_t at = 0; at < a.size(); at += stride * kPage) {
        a[at] = 0xa5;
        a[std::min(at + kPage, a.size()) - 1] = 0x5a;
    }
    a[0] = 1;
    a[a.size() - 1] = 2;
}

/** Whether [p, p + bytes) is still mapped. */
bool
mapped(void *p, size_t bytes)
{
    std::vector<unsigned char> vec((bytes + kPage - 1) / kPage);
    return mincore(p, bytes, vec.data()) == 0 || errno != ENOMEM;
}

/** Runs @p body in a forkChild() child, so what it leaves in the pool
 *  stays there; its gtest failures fail the test. */
template <typename Body>
void
inChild(Body body)
{
    std::fflush(stdout);
    pid_t pid = forkChild();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        body();
        std::fflush(stdout);
        _exit(::testing::Test::HasFailure() ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_EQ(describeWaitStatus(status), "exit:0");
}

TEST(ZeroedArray, ReacquiredMappingReadsZero)
{
    // Sizes below, at and above page multiples, both sides of the
    // whole-mapping memset threshold, a table of L3-tag size (NH's,
    // 768 KiB) and the largest size the pool keeps.
    for (size_t n : {size_t{1}, kPage - 1, kPage, kPage + 1,
                     3 * kPage + 17, 40 * kPage + 5, 192 * kPage,
                     zeroed::kHugeBytes - kPage}) {
        for (size_t stride : {size_t{1}, size_t{3}}) {
            uint8_t *first;
            {
                ZeroedArray<uint8_t> a(n);
                ASSERT_EQ(a.size(), n);
                EXPECT_TRUE(allZero(a)) << n;
                scribble(a, stride);
                first = a.data();
            }
            ZeroedArray<uint8_t> b(n);
            EXPECT_EQ(b.data(), first) << n << ": mapping not reused";
            EXPECT_TRUE(allZero(b)) << n << " bytes, every " << stride
                                    << " pages written";
        }
    }
}

TEST(ZeroedArray, OnlyTheSameSizeIsReused)
{
    uint8_t *three;
    {
        ZeroedArray<uint8_t> a(3 * kPage);
        three = a.data();
    }
    ZeroedArray<uint8_t> five(5 * kPage);
    EXPECT_NE(five.data(), three);
    // Sizes round to pages, so a shorter array of three pages fits.
    ZeroedArray<uint64_t> again(3 * kPage / sizeof(uint64_t) - 1);
    EXPECT_EQ(reinterpret_cast<uint8_t *>(again.data()), three);
}

TEST(ZeroedArray, MappingsBeyondTheBoundAreUnmapped)
{
    inChild([] {
        // By count: one more one-page array than the pool holds. They
        // go back newest first, so the oldest finds the pool full.
        std::vector<ZeroedArray<uint8_t>> arrays;
        for (size_t i = 0; i <= zeroed::kPoolMappings; ++i) {
            arrays.emplace_back(kPage);
            arrays.back()[0] = 1;
        }
        uint8_t *oldest = arrays.front().data();
        while (!arrays.empty())
            arrays.pop_back();
        EXPECT_EQ(zeroed::pooled(), zeroed::kPoolMappings);
        EXPECT_FALSE(mapped(oldest, kPage));
    });
    inChild([] {
        // By bytes: the largest pooled mappings, one more than the
        // byte bound holds (and fewer than the count bound).
        const size_t big = zeroed::kHugeBytes - kPage;
        const size_t count = zeroed::kPoolBytes / big + 1;
        ASSERT_LT(count, zeroed::kPoolMappings);
        std::vector<ZeroedArray<uint8_t>> arrays;
        for (size_t i = 0; i < count; ++i)
            arrays.emplace_back(big);
        uint8_t *oldest = arrays.front().data();
        uint8_t *newest = arrays.back().data();
        while (!arrays.empty())
            arrays.pop_back();
        EXPECT_TRUE(mapped(newest, big));
        EXPECT_FALSE(mapped(oldest, big));
    });
}

TEST(ZeroedArray, HugeMappingsAreAlignedAndNeverPooled)
{
    const size_t pooled = zeroed::pooled();
    inChild([pooled] {
        for (size_t n : {zeroed::kHugeBytes, 3 * zeroed::kHugeBytes + 17}) {
            uint8_t *p;
            {
                ZeroedArray<uint8_t> a(n);
                p = a.data();
                EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                              zeroed::kHugeBytes,
                          0u)
                    << n;
                EXPECT_TRUE(allZero(a)) << n;
                scribble(a);
            }
            EXPECT_EQ(zeroed::pooled(), pooled) << n;
            EXPECT_FALSE(mapped(p, n)) << n;
            // A fresh mapping again, zero throughout.
            ZeroedArray<uint8_t> b(n);
            EXPECT_TRUE(allZero(b)) << n;
        }
    });
}

TEST(ZeroedArray, ForkedChildReacquiresZeroedArrays)
{
    // Released untouched: in the parent none of its pages is resident,
    // so a child that read its parent's residency would skip them all.
    const size_t n = 40 * kPage;
    uint8_t *pooled;
    {
        ZeroedArray<uint8_t> a(n);
        pooled = a.data();
    }
    inChild([&] {
        for (int round = 0; round < 2; ++round) {
            ZeroedArray<uint8_t> b(n);
            EXPECT_EQ(b.data(), pooled);
            EXPECT_TRUE(allZero(b)) << "round " << round;
            scribble(b);
        }
    });
    ZeroedArray<uint8_t> c(n);
    EXPECT_EQ(c.data(), pooled);
    EXPECT_TRUE(allZero(c));
}

} // namespace
