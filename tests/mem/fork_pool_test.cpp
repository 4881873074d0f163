/**
 * The fork pool: every item's blob comes back at its index whatever the
 * worker count, and a worker that dies costs exactly the item it was
 * running — reported with its wait status — while the run goes on.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fork_pool.h"

namespace {

using namespace minjie;

/** Item @p i's blob: its index, then i * 1500 bytes of filler, so
 *  sizes run from bare to longer than one 64 KiB socket read. */
std::vector<uint8_t>
blobOf(size_t i)
{
    std::vector<uint8_t> v(8 + i * 1500, static_cast<uint8_t>(i));
    for (unsigned k = 0; k < 8; ++k)
        v[k] = static_cast<uint8_t>(i >> (8 * k));
    return v;
}

/** Dying workers must not leave core files behind. */
void
noCoreDumps()
{
    rlimit none{0, 0};
    setrlimit(RLIMIT_CORE, &none);
}

/** Die by a real SIGSEGV, even where a sanitizer runtime would catch
 *  it and abort instead. */
[[noreturn]] void
segfault()
{
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
    std::abort();
}

TEST(ForkPool, DeathsFailExactlyTheirItems)
{
    noCoreDumps();
    auto out = runPool(40, 3, [](size_t i) {
        if (i == 5)
            segfault();
        if (i == 17)
            std::abort();
        if (i == 29)
            ::_exit(3);
        return blobOf(i);
    });
    ASSERT_EQ(out.size(), 40u);
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_LT(out[i].worker, 3u);
        if (i == 5 || i == 17 || i == 29) {
            EXPECT_FALSE(out[i].ok) << i;
            EXPECT_TRUE(out[i].bytes.empty()) << i;
            continue;
        }
        EXPECT_TRUE(out[i].ok) << i;
        EXPECT_EQ(out[i].bytes, blobOf(i)) << i;
    }
    EXPECT_TRUE(WIFSIGNALED(out[5].status));
    EXPECT_EQ(WTERMSIG(out[5].status), SIGSEGV);
    EXPECT_EQ(describeWaitStatus(out[5].status), "crash:SIGSEGV");
    EXPECT_TRUE(WIFSIGNALED(out[17].status));
    EXPECT_EQ(WTERMSIG(out[17].status), SIGABRT);
    EXPECT_EQ(describeWaitStatus(out[17].status), "crash:SIGABRT");
    EXPECT_TRUE(WIFEXITED(out[29].status));
    EXPECT_EQ(WEXITSTATUS(out[29].status), 3);
    EXPECT_EQ(describeWaitStatus(out[29].status), "exit:3");
}

TEST(ForkPool, RespawnKeepsTheRunGoing)
{
    // Ten deaths on two workers: every one is replaced, and every
    // surviving item still comes back.
    noCoreDumps();
    auto out = runPool(30, 2, [](size_t i) {
        if (i % 3 == 0)
            ::_exit(7);
        return blobOf(i);
    });
    ASSERT_EQ(out.size(), 30u);
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].ok, i % 3 != 0) << i;
        if (out[i].ok)
            EXPECT_EQ(out[i].bytes, blobOf(i)) << i;
        else
            EXPECT_EQ(describeWaitStatus(out[i].status), "exit:7") << i;
    }
}

TEST(ForkPool, MoreWorkersThanItems)
{
    auto out = runPool(3, 16, blobOf);
    ASSERT_EQ(out.size(), 3u);
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(out[i].ok);
        EXPECT_EQ(out[i].bytes, blobOf(i));
        EXPECT_LT(out[i].worker, 3u);
    }
}

TEST(ForkPool, NoItems)
{
    unsigned calls = 0;
    auto task = [&](size_t i) {
        ++calls;
        return blobOf(i);
    };
    EXPECT_TRUE(runPool(0, 1, task).empty());
    EXPECT_TRUE(runPool(0, 4, task).empty());
    EXPECT_EQ(calls, 0u);
}

TEST(ForkPool, InProcessEqualsForked)
{
    const size_t n = 64;
    auto one = runPool(n, 1, blobOf);
    auto four = runPool(n, 4, blobOf);
    ASSERT_EQ(one.size(), n);
    ASSERT_EQ(four.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(one[i].ok);
        EXPECT_EQ(one[i].worker, 0u);
        EXPECT_TRUE(four[i].ok);
        EXPECT_EQ(four[i].bytes, one[i].bytes) << i;
    }
}

TEST(ForkPool, ItemsRunInWorkerProcesses)
{
    const pid_t self = ::getpid();
    auto elsewhere = [self](size_t) {
        return std::vector<uint8_t>{::getpid() != self};
    };
    for (const PoolResult &r : runPool(8, 2, elsewhere))
        EXPECT_EQ(r.bytes, std::vector<uint8_t>{1});
    for (const PoolResult &r : runPool(8, 1, elsewhere))
        EXPECT_EQ(r.bytes, std::vector<uint8_t>{0});
}

} // namespace
