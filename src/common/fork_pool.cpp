#include "common/fork_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring> // sigabbrev_np
#include <new>

#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>    // malloc_trim
#include <stdio_ext.h> // __fpurge: discard inherited stdio buffers
#endif

namespace minjie {

namespace {

using Slot = std::atomic<uint64_t>;

/** Move all @p n bytes through pipe end @p fd; false on EOF or error. */
bool
transfer(int fd, void *buf, size_t n, bool out)
{
    for (auto *p = static_cast<uint8_t *>(buf); n;) {
        ssize_t r = out ? ::write(fd, p, n) : ::read(fd, p, n);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        p += r;
        n -= static_cast<size_t>(r);
    }
    return true;
}

/** Worker: claim items until none is left; answer (index, length, blob).
 *  @p mine is set before each claim, so a dead worker names its item. */
[[noreturn]] void
serve(int fd, Slot &next, Slot &mine, size_t n, const PoolTask &task)
{
    for (;;) {
        uint64_t i = next.load();
        do
            mine.store(i);
        while (i < n && !next.compare_exchange_weak(i, i + 1));
        if (i >= n)
            ::_exit(0);
        std::vector<uint8_t> blob = task(i);
        uint64_t head[2] = {i, blob.size()};
        if (!transfer(fd, head, sizeof(head), true) ||
            !transfer(fd, blob.data(), blob.size(), true))
            ::_exit(1);
    }
}

} // namespace

std::vector<PoolResult>
runPool(size_t n, unsigned workers, const PoolTask &task)
{
    std::vector<PoolResult> out(n);
    size_t nw = workers > 1 ? std::min<size_t>(workers, n) : 0;
    // Shared with the workers: slot 0 is the next unclaimed item, slot
    // 1 + s the item worker s holds (n: none).
    size_t bytes = (nw + 1) * sizeof(Slot);
    void *map = nw ? ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_ANONYMOUS, -1, 0)
                   : MAP_FAILED;
    auto *slots = static_cast<Slot *>(map);
    std::vector<pollfd> ws(map == MAP_FAILED ? 0 : nw, {-1, POLLIN, 0});
    std::vector<pid_t> pids(ws.size());
    for (size_t k = 0; !ws.empty() && k <= nw; ++k)
        new (&slots[k]) Slot(k ? n : 0);

    auto spawn = [&](size_t s) {
        int fds[2];
        slots[1 + s].store(n);
        if (::pipe(fds) != 0)
            return; // the slot stays empty
        pid_t pid = forkChild();
        if (pid == 0) {
            // No read ends: a worker whose parent is gone dies writing.
            for (const pollfd &w : ws)
                if (w.fd >= 0)
                    ::close(w.fd);
            ::close(fds[0]);
            serve(fds[1], slots[0], slots[1 + s], n, task);
        }
        ::close(fds[1]);
        pids[s] = pid;
        if (pid > 0)
            ws[s].fd = fds[0];
        else
            ::close(fds[0]);
    };
#if defined(__GLIBC__)
    // fork() copies the page tables of every resident heap page, freed
    // ones too (a pack writer's pool just serialized): return them first.
    if (!ws.empty())
        ::malloc_trim(0);
#endif
    for (size_t s = 0; s < ws.size(); ++s)
        spawn(s);

    // Workers exit once all items are claimed; poll() skips fd -1.
    while (std::any_of(ws.begin(), ws.end(),
                       [](const pollfd &w) { return w.fd >= 0; })) {
        int ready = ::poll(ws.data(), ws.size(), -1);
        if (ready < 0 && errno == EINTR)
            continue;
        for (size_t s = 0; s < ws.size(); ++s) {
            // When poll() fails, block on each worker in turn.
            if (ws[s].fd < 0 || (ready > 0 && !ws[s].revents))
                continue;
            uint64_t head[2];
            bool sized = transfer(ws[s].fd, head, sizeof(head), false) &&
                         head[0] < n && head[1] <= UINT32_MAX;
            std::vector<uint8_t> blob(sized ? head[1] : 0);
            if (sized && transfer(ws[s].fd, blob.data(), blob.size(), false)) {
                out[head[0]] = {true, 0, unsigned(s), std::move(blob)};
                continue;
            }
            // EOF: the worker is gone. An unanswered item it held fails
            // with its wait status; only such a death is replaced.
            ::close(ws[s].fd);
            ws[s].fd = -1;
            int status = 0;
            while (::waitpid(pids[s], &status, 0) < 0 && errno == EINTR) {
            }
            uint64_t held = slots[1 + s].load();
            if (held >= n || out[held].ok)
                continue;
            out[held] = {false, status, unsigned(s), {}};
            if (slots[0].load() < n)
                spawn(s);
        }
    }
    // In-process: no pool asked for, or no worker left to claim these.
    uint64_t first = ws.empty() ? 0 : slots[0].load();
    if (map != MAP_FAILED)
        ::munmap(map, bytes);
    for (uint64_t i = first; i < n; ++i)
        out[i] = {true, 0, 0, task(i)};
    return out;
}

pid_t
forkChild()
{
    pid_t pid = ::fork();
#if defined(__GLIBC__)
    if (pid == 0) {
        __fpurge(stdout);
        __fpurge(stdin);
    }
#endif
    return pid;
}

std::string
describeWaitStatus(int status)
{
    if (!WIFSIGNALED(status))
        return "exit:" + std::to_string(WEXITSTATUS(status));
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 32)
    if (const char *abbrev = sigabbrev_np(WTERMSIG(status)))
        return std::string("crash:SIG") + abbrev;
#endif
    return "crash:SIG" + std::to_string(WTERMSIG(status));
}

} // namespace minjie
