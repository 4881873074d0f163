#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "lightsss/lightsss.h"
#include "lightsss/sss.h"
#include "nemu/nemu.h"
#include "iss/system.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::lightsss;
namespace wl = minjie::workload;

std::string
tmpPath(const char *tag)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "/tmp/lightsss_test_%s_%d", tag,
                  getpid());
    return buf;
}

/** True when this process has no child left, exited or running. */
bool
noChildren()
{
    return waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(LightSSS, ForkIsCheap)
{
    LightSSS sss({1000, 2, true});
    // Tick across three intervals: three forks.
    for (Cycle c = 0; c <= 3000; c += 500) {
        auto role = sss.tick(c);
        ASSERT_EQ(role, LightSSS::Role::Parent);
    }
    EXPECT_GE(sss.stats().forks, 3u);
    // The headline claim: a fork costs far less than an SSS image
    // (paper: 535us vs 3.671s). Allow generous slack for CI noise.
    EXPECT_LT(sss.stats().lastForkUs, 200'000u);
    sss.discardAll();
}

TEST(LightSSS, CountsCopyOnWriteFaultsPerInterval)
{
    // Every page written after a fork is shared with the live
    // snapshot, so the write takes a copy-on-write fault.
    constexpr size_t kPages = 64;
    std::vector<uint8_t> mem(kPages * 4096, 1);
    LightSSS sss({100, 2, true});
    for (Cycle c = 0; c <= 400; c += 100) {
        sss.tick(c);
        for (size_t p = 0; p < kPages; ++p)
            ++mem[p * 4096];
    }
    ASSERT_EQ(sss.stats().forks, 5u);
    EXPECT_GE(sss.stats().intervalFaults, 4 * kPages);
    EXPECT_GE(sss.stats().faultsPerInterval(), kPages);
    sss.discardAll();
}

TEST(LightSSS, KeepsOnlyTwoSnapshots)
{
    LightSSS sss({100, 2, true});
    for (Cycle c = 0; c <= 1000; c += 100)
        sss.tick(c);
    EXPECT_GE(sss.stats().kills, 8u);
    sss.discardAll();
}

TEST(LightSSS, ReplayChildReRunsWindow)
{
    // Full protocol: simulate with periodic snapshots; detect a
    // "failure"; the oldest snapshot replays the window and reports
    // its replayed cycle range through a file.
    std::string marker = tmpPath("replay");
    std::remove(marker.c_str());

    LightSSS sss({1000, 2, true});
    const Cycle failAt = 3456;
    bool replayed = false;

    for (Cycle c = 0; c <= failAt; ++c) {
        auto role = sss.tick(c);
        if (role == LightSSS::Role::ReplayChild) {
            // We are the snapshot: our cycle counter is c (the fork
            // point). Replay up to the failure target.
            std::ofstream out(marker);
            out << sss.snapshotCycle() << " " << sss.replayTargetCycle();
            out.close();
            LightSSS::finishReplay(0);
        }
        // ... simulation work would happen here ...
    }
    ASSERT_TRUE(sss.triggerReplay(failAt));
    replayed = true;
    // The replay child and every dropped snapshot have been reaped.
    EXPECT_TRUE(noChildren());

    ASSERT_TRUE(replayed);
    std::ifstream in(marker);
    ASSERT_TRUE(in.good()) << "replay child did not run";
    Cycle snapCycle, target;
    in >> snapCycle >> target;
    EXPECT_EQ(target, failAt);
    // Oldest surviving snapshot: at most 2 intervals before failure.
    EXPECT_LE(failAt - snapCycle, 2000u);
    EXPECT_GT(snapCycle, 0u);
    std::remove(marker.c_str());
}

TEST(LightSSS, ReplayChildSeesSnapshotMemoryState)
{
    // The property that makes fork() snapshots work: the child sees
    // the memory image as of the fork, not the parent's later writes.
    std::string marker = tmpPath("mem");
    std::remove(marker.c_str());

    static volatile uint64_t counter = 0;
    LightSSS sss({100, 2, true});
    for (Cycle c = 0; c <= 250; ++c) {
        counter = c;
        auto role = sss.tick(c);
        if (role == LightSSS::Role::ReplayChild) {
            std::ofstream out(marker);
            out << counter; // must be the fork-time value
            out.close();
            LightSSS::finishReplay(0);
        }
    }
    ASSERT_TRUE(sss.triggerReplay(250));
    std::ifstream in(marker);
    ASSERT_TRUE(in.good());
    uint64_t seen;
    in >> seen;
    // Oldest snapshot was taken at cycle 100 (c=0 fork then c=100).
    EXPECT_LE(seen, 100u);
    std::remove(marker.c_str());
}

TEST(LightSSS, CycleRewindDoesNotForkImmediately)
{
    // Regression: tick() computed `now - lastForkCycle_` unsigned, so
    // a rewound cycle counter (checkpoint restore, a fresh run reusing
    // the instance) wrapped to a huge interval and forked on the spot.
    LightSSS sss({1000, 2, true});
    sss.tick(0);
    sss.tick(5000);
    uint64_t forks = sss.stats().forks;
    ASSERT_GE(forks, 2u);

    // Rewind: must re-arm, not fork off the wrapped difference.
    EXPECT_EQ(sss.tick(100), LightSSS::Role::Parent);
    EXPECT_EQ(sss.stats().forks, forks);
    // Still within one interval of the re-armed base.
    EXPECT_EQ(sss.tick(1099), LightSSS::Role::Parent);
    EXPECT_EQ(sss.stats().forks, forks);
    // One full interval after the rewound base: forks again.
    sss.tick(1100);
    EXPECT_EQ(sss.stats().forks, forks + 1);
    sss.discardAll();
}

TEST(LightSSS, ReplayChildRearmsForkInterval)
{
    // A woken replay child re-simulates its window, often from a
    // rewound driver clock. It must not spawn snapshot grandchildren
    // from the parent's stale fork base while doing so.
    std::string marker = tmpPath("rearm");
    std::remove(marker.c_str());

    LightSSS sss({1000, 2, true});
    const Cycle failAt = 2500;
    for (Cycle c = 0; c <= failAt; ++c) {
        auto role = sss.tick(c);
        if (role == LightSSS::Role::ReplayChild) {
            uint64_t forksAtWake = sss.stats().forks;
            // Replay driver restarts its local clock at 0 and ticks
            // through a window shorter than one interval.
            for (Cycle r = 0; r < 500; ++r)
                sss.tick(r);
            std::ofstream out(marker);
            out << (sss.stats().forks - forksAtWake);
            out.close();
            LightSSS::finishReplay(0);
        }
    }
    ASSERT_TRUE(sss.triggerReplay(failAt));
    std::ifstream in(marker);
    ASSERT_TRUE(in.good()) << "replay child did not run";
    uint64_t childForks = ~0ULL;
    in >> childForks;
    EXPECT_EQ(childForks, 0u)
        << "replay child forked snapshots inside its window";
    std::remove(marker.c_str());
}

TEST(LightSSS, ReplayChildDoesNotFlushInheritedBuffers)
{
    // Regression: finishReplay() called fflush(nullptr), which also
    // flushed FILE streams inherited from the parent at fork time. The
    // parent flushes those buffers itself, and fork() shares the file
    // offset, so every byte pending at fork time landed in the file
    // twice.
    std::string path = tmpPath("dup");
    std::remove(path.c_str());
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    setvbuf(f, nullptr, _IOFBF, 1 << 16);

    LightSSS sss({1000, 2, true});
    std::fputs("pending-bytes", f); // buffered, deliberately unflushed
    auto role = sss.tick(0);        // forks with the bytes pending
    if (role == LightSSS::Role::ReplayChild) {
        // Child: exit the replay path. Must NOT emit the parent's
        // pending bytes.
        LightSSS::finishReplay(0);
    }

    std::fflush(f); // the parent's copy: the only legitimate write
    ASSERT_TRUE(sss.triggerReplay(500));
    std::fclose(f);

    std::ifstream in(path);
    std::string got((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(got, "pending-bytes")
        << "replay child flushed buffers it does not own";
    std::remove(path.c_str());
}

TEST(LightSSS, DiscardAllLeavesNoUnreapedChild)
{
    // tick() drops snapshots without waiting for them; discardAll()
    // must still reap every child, dropped ones included.
    ASSERT_TRUE(noChildren());
    {
        LightSSS sss({100, 2, true});
        for (Cycle c = 0; c <= 2000; c += 100)
            ASSERT_EQ(sss.tick(c), LightSSS::Role::Parent);
        EXPECT_EQ(sss.stats().forks, 21u);
        EXPECT_EQ(sss.stats().kills, 19u);
        sss.discardAll();
        EXPECT_TRUE(noChildren());

        // The instance stays usable; its destructor reaps too.
        sss.tick(2100);
        sss.tick(2200);
        sss.tick(2300);
    }
    EXPECT_TRUE(noChildren());
}

TEST(LightSSS, CrashedReplayIsNotCompleted)
{
    // A replay child killed by a signal did not replay anything: the
    // caller must not report the replay as done, and must reap it.
    LightSSS sss({1000, 2, true});
    for (Cycle c = 0; c <= 3000; c += 500) {
        if (sss.tick(c) == LightSSS::Role::ReplayChild) {
            rlimit noCore{0, 0};
            setrlimit(RLIMIT_CORE, &noCore);
            std::signal(SIGSEGV, SIG_DFL);
            std::raise(SIGSEGV);
            LightSSS::finishReplay(0);
        }
    }
    EXPECT_FALSE(sss.triggerReplay(3000));
    EXPECT_TRUE(noChildren());
}

TEST(LightSSS, NoSnapshotMeansNoReplay)
{
    LightSSS sss({1'000'000, 2, true});
    LightSSS dis({1000, 2, false});
    EXPECT_FALSE(dis.enabled() && false);
    // Disabled instance never forks.
    for (Cycle c = 0; c < 5000; c += 500)
        EXPECT_EQ(dis.tick(c), LightSSS::Role::Parent);
    EXPECT_EQ(dis.stats().forks, 0u);
    EXPECT_FALSE(dis.triggerReplay(123));
}

TEST(Sss, FullImageSnapshotAndRestore)
{
    iss::System sys(32);
    auto prog = wl::sumProgram(100);
    prog.loadInto(sys.dram);
    nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
    nemu.setHaltFn([&] { return sys.simctrl.exited(); });

    SssSnapshotter sss(sys.dram);
    nemu.run(50);
    iss::ArchState mid = nemu.state();
    size_t bytes = sss.takeSnapshot(nemu.state(), 50);
    EXPECT_GT(bytes, 4096u);

    nemu.run(1000); // run further, dirtying state

    iss::ArchState restored;
    Cycle cycle = sss.restoreOldest(restored);
    EXPECT_EQ(cycle, 50u);
    EXPECT_EQ(restored.pc, mid.pc);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(restored.x[i], mid.x[i]) << i;
}

TEST(Sss, SnapshotCostGrowsWithMemory)
{
    iss::System sys(256);
    // Dirty a lot of pages.
    for (Addr a = 0; a < 64 * 1024 * 1024; a += 4096)
        sys.dram.write(iss::DRAM_BASE + a, 8, a);
    iss::ArchState st;
    SssSnapshotter sss(sys.dram);
    sss.takeSnapshot(st, 0);
    uint64_t big = sss.lastSnapshotUs();

    iss::System small(16);
    for (Addr a = 0; a < 1024 * 1024; a += 4096)
        small.dram.write(iss::DRAM_BASE + a, 8, a);
    SssSnapshotter sss2(small.dram);
    sss2.takeSnapshot(st, 0);
    uint64_t smallUs = sss2.lastSnapshotUs();

    // The paper's point: SSS cost scales with simulated memory.
    EXPECT_GT(big, smallUs * 4);
}

TEST(LightSSS, ForkBeatsSssByOrdersOfMagnitude)
{
    // Section III-C4: fork() ~535us vs SSS ~3.7s. Verify the ratio
    // holds with a heavily dirtied memory image.
    iss::System sys(256);
    for (Addr a = 0; a < 128 * 1024 * 1024; a += 4096)
        sys.dram.write(iss::DRAM_BASE + a, 8, a);

    iss::ArchState st;
    SssSnapshotter sssFull(sys.dram);
    sssFull.takeSnapshot(st, 0);
    uint64_t sssUs = sssFull.lastSnapshotUs();

    LightSSS light({1000, 2, true});
    light.tick(0);
    light.tick(1000);
    uint64_t forkUs = light.stats().lastForkUs;
    light.discardAll();

    EXPECT_LT(forkUs * 10, sssUs)
        << "fork " << forkUs << "us vs SSS " << sssUs << "us";
}

} // namespace
