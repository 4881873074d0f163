/**
 * @file
 * The fork pool, the one way work fans out: campaign jobs and sampled
 * slices run on it; LightSSS forks through its forkChild().
 *
 * runPool() runs task(i) for every i in [0, n) on up to `workers`
 * processes forked once per call. Workers claim items from a shared
 * counter and send each blob back with its index, so the worker count
 * never changes results. A worker that dies costs exactly the item it
 * held (failed, with its wait status) and is replaced. `workers <= 1`,
 * or a failed mmap/pipe/fork, runs items in-process through the same
 * blob round trip.
 */

#ifndef MINJIE_COMMON_FORK_POOL_H
#define MINJIE_COMMON_FORK_POOL_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace minjie {

struct PoolResult
{
    bool ok = false;     ///< the task returned and its whole blob arrived
    int status = 0;      ///< !ok: wait status of the worker that died
    unsigned worker = 0; ///< slot that ran the item (0 in-process)
    std::vector<uint8_t> bytes;
};

/** One item's result blob; runs in a copy-on-write image of the caller. */
using PoolTask = std::function<std::vector<uint8_t>(size_t)>;

/** Element i is the outcome of task(i). */
std::vector<PoolResult> runPool(size_t n, unsigned workers,
                                const PoolTask &task);

/** fork(); the child discards the stdio buffers it inherited (the
 *  parent flushes its own copy) and must leave through _exit(). */
pid_t forkChild();

/** "crash:SIGSEGV" for a death by signal, "exit:3" for an exit. */
std::string describeWaitStatus(int status);

} // namespace minjie

#endif // MINJIE_COMMON_FORK_POOL_H
