/**
 * @file
 * LightSSS: lightweight simulation snapshots (paper Section III-C).
 *
 * Instead of serializing circuit state, the simulator process itself is
 * snapshotted with fork(): the kernel's copy-on-write pages make each
 * snapshot incremental (only pages the parent subsequently dirties are
 * copied) and circuit-agnostic (external C/C++ models such as the DRAM
 * simulator are captured for free). Snapshots are taken every N cycles;
 * only the most recent two are kept. On a failure, the oldest surviving
 * snapshot is woken and replays the last <= 2N cycles with debugging
 * output enabled.
 *
 * Dropping a snapshot is off the critical path: tick() tells the child
 * to exit and reaps it without blocking at a later tick, so besides
 * the keepSnapshots live snapshots a few dropped ones may still be
 * tearing down. discardAll() and triggerReplay() wait for every child.
 *
 * The SSS baseline of Section III-C2 — an explicit full-image,
 * circuit-dependent snapshot — lives in sss.h for the Figure 6 /
 * Table I comparison.
 */

#ifndef MINJIE_LIGHTSSS_LIGHTSSS_H
#define MINJIE_LIGHTSSS_LIGHTSSS_H

#include <deque>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/types.h"

namespace minjie::lightsss {

struct LightSssConfig
{
    Cycle intervalCycles = 1'000'000; ///< snapshot period N
    unsigned keepSnapshots = 2;       ///< retained snapshots (paper: 2)
    bool enabled = true;
};

struct LightSssStats
{
    uint64_t forks = 0;
    uint64_t lastForkUs = 0;   ///< wall time of the last fork() call
    uint64_t totalForkUs = 0;
    uint64_t kills = 0;        ///< snapshots dropped (beyond keep limit)
    /** The parent's minor page faults from each fork to the next,
     *  summed over the forks - 1 completed intervals: mostly the
     *  copy-on-write copies of the pages it dirtied. */
    uint64_t intervalFaults = 0;

    /** Mean minor faults per completed snapshot interval. */
    uint64_t
    faultsPerInterval() const
    {
        return forks > 1 ? intervalFaults / (forks - 1) : 0;
    }
};

class LightSSS
{
  public:
    enum class Role {
        Parent,      ///< normal simulation continues
        ReplayChild, ///< this process is a woken snapshot: re-run in
                     ///< debug mode up to replayTargetCycle()
    };

    explicit LightSSS(const LightSssConfig &cfg = {});
    ~LightSSS();

    /**
     * Periodic driver hook; forks a snapshot when the interval has
     * elapsed, first dropping the oldest beyond keepSnapshots. In the
     * parent this returns Role::Parent without waiting for any child;
     * a woken snapshot child returns Role::ReplayChild exactly once.
     */
    Role tick(Cycle now);

    /**
     * A failure was detected at @p failCycle: wake the oldest snapshot
     * to replay the failure window, wait for it to finish, and drop all
     * snapshots. @return false when no snapshot exists (e.g. failure
     * before the first interval) or the replay child did not exit 0.
     */
    bool triggerReplay(Cycle failCycle);

    /** The cycle this replay child must simulate up to (inclusive). */
    Cycle replayTargetCycle() const { return replayTarget_; }

    /** The cycle at which this child process was snapshotted. */
    Cycle snapshotCycle() const { return snapshotCycle_; }

    /** Terminate a replay child (never returns). Uses _exit so the
     *  forked copy does not run atexit handlers twice. */
    [[noreturn]] static void finishReplay(int exitCode = 0);

    const LightSssStats &stats() const { return stats_; }
    bool enabled() const { return cfg_.enabled; }

    /** Drop all snapshots (e.g. end of simulation) and reap every
     *  dropped child, waiting for each. */
    void discardAll();

  private:
    struct Snapshot
    {
        pid_t pid;
        int wakeFd; ///< write end of the child's control pipe
        Cycle cycle;
    };

    /** Tell @p snap's child to exit, close its pipe and queue it for
     *  reaping. */
    void drop(const Snapshot &snap);

    /** Reap dropped children: all of them when @p block, otherwise
     *  only those that have already exited. */
    void reapDropped(bool block);

    LightSssConfig cfg_;
    std::deque<Snapshot> snapshots_;
    std::vector<pid_t> dropped_; ///< told to exit, not yet reaped
    Cycle lastForkCycle_ = 0;
    uint64_t lastForkFaults_ = 0; ///< parent minor faults at last fork
    Cycle snapshotCycle_ = 0;
    Cycle replayTarget_ = 0;
    LightSssStats stats_;
};

} // namespace minjie::lightsss

#endif // MINJIE_LIGHTSSS_LIGHTSSS_H
