#include "lightsss/lightsss.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/fork_pool.h"
#include "common/log.h"

namespace minjie::lightsss {

namespace {

/** Control message from parent to a snapshot child. */
struct WakeMsg
{
    uint64_t action; ///< 0 = die, 1 = replay
    uint64_t targetCycle;
};

} // namespace

LightSSS::LightSSS(const LightSssConfig &cfg) : cfg_(cfg) {}

LightSSS::~LightSSS()
{
    discardAll();
}

void
LightSSS::drop(const Snapshot &snap)
{
    WakeMsg msg{0, 0};
    (void)!write(snap.wakeFd, &msg, sizeof(msg));
    close(snap.wakeFd);
    dropped_.push_back(snap.pid);
}

void
LightSSS::reapDropped(bool block)
{
    std::erase_if(dropped_, [block](pid_t pid) {
        pid_t r = 0;
        do
            r = waitpid(pid, nullptr, block ? 0 : WNOHANG);
        while (r < 0 && errno == EINTR);
        return r != 0; // reaped, or not our child any more
    });
}

void
LightSSS::discardAll()
{
    for (const auto &snap : snapshots_)
        drop(snap);
    snapshots_.clear();
    reapDropped(true);
}

LightSSS::Role
LightSSS::tick(Cycle now)
{
    if (!cfg_.enabled)
        return Role::Parent;
    if (now < lastForkCycle_) {
        // The cycle counter rewound (checkpoint restore, replay child
        // re-simulating from its window start, a fresh run reusing
        // this instance). The unsigned difference below would wrap to
        // a huge value and fork immediately; re-arm the interval from
        // the rewound clock instead.
        lastForkCycle_ = now;
        return Role::Parent;
    }
    if (now - lastForkCycle_ < cfg_.intervalCycles && now != 0)
        return Role::Parent;
    lastForkCycle_ = now;

    // Reap the snapshots dropped earlier that have exited by now, then
    // drop the oldest beyond the retention limit. A dropped child exits
    // once told to; waiting here while its address space is torn down
    // would stall the simulation.
    reapDropped(false);
    while (snapshots_.size() >= cfg_.keepSnapshots) {
        drop(snapshots_.front());
        snapshots_.pop_front();
        ++stats_.kills;
    }

    int pipefd[2];
    if (pipe(pipefd) != 0) {
        MJ_WARN("LightSSS: pipe() failed: %s", strerror(errno));
        return Role::Parent;
    }

    Stopwatch sw;
    pid_t pid = forkChild();
    if (pid < 0) {
        MJ_WARN("LightSSS: fork() failed: %s", strerror(errno));
        close(pipefd[0]);
        close(pipefd[1]);
        return Role::Parent;
    }

    if (pid == 0) {
        // Snapshot child: release inherited snapshot handles (they
        // belong to the parent) and sleep until woken.
        close(pipefd[1]);
        for (auto &snap : snapshots_)
            close(snap.wakeFd);
        snapshots_.clear();
        dropped_.clear();

        WakeMsg msg{};
        ssize_t got = read(pipefd[0], &msg, sizeof(msg));
        close(pipefd[0]);
        if (got != sizeof(msg) || msg.action == 0)
            _exit(0); // dropped: this snapshot was never needed

        // Woken for replay: the caller re-runs the window in debug mode.
        snapshotCycle_ = now;
        replayTarget_ = msg.targetCycle;
        // Re-arm the fork interval at the snapshot point so a replay
        // that keeps ticking does not fork off the parent's stale base.
        lastForkCycle_ = now;
        return Role::ReplayChild;
    }

    // Parent.
    close(pipefd[0]);
    snapshots_.push_back({pid, pipefd[1], now});
    ++stats_.forks;
    stats_.lastForkUs = sw.elapsedUs();
    stats_.totalForkUs += stats_.lastForkUs;
    return Role::Parent;
}

bool
LightSSS::triggerReplay(Cycle failCycle)
{
    if (snapshots_.empty())
        return false;

    // Wake the oldest snapshot (paper: "the second to last snapshot"),
    // giving the longest pre-failure window in the replay.
    Snapshot oldest = snapshots_.front();
    snapshots_.pop_front();
    WakeMsg msg{1, failCycle};
    if (write(oldest.wakeFd, &msg, sizeof(msg)) != sizeof(msg)) {
        MJ_WARN("LightSSS: failed to wake snapshot %d", oldest.pid);
        close(oldest.wakeFd);
        dropped_.push_back(oldest.pid); // it sees EOF and exits
        return false;
    }
    close(oldest.wakeFd);

    int status = 0;
    pid_t r = 0;
    do
        r = waitpid(oldest.pid, &status, 0);
    while (r < 0 && errno == EINTR);
    bool ok = r == oldest.pid && WIFEXITED(status) &&
              WEXITSTATUS(status) == 0;
    MJ_INFO("LightSSS: replay child %d finished: %s", oldest.pid,
            r == oldest.pid ? describeWaitStatus(status).c_str()
                            : std::strerror(errno));

    // Remaining (younger) snapshots are no longer needed.
    discardAll();
    return ok;
}

void
LightSSS::finishReplay(int exitCode)
{
    // Flush only the streams this replay child wrote itself. A blanket
    // fflush(nullptr) would also flush streams inherited from the
    // parent (log files, result files) whose buffered bytes the parent
    // still owns and will flush — emitting them twice. stdout is safe:
    // its inherited buffer was purged at fork time in tick().
    // lint:allow MJ-FRK2-001 stdout purged at fork; only replay-child output remains
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(exitCode);
}

} // namespace minjie::lightsss
