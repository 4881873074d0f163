#include "common/zeroed_array.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <new>

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

namespace minjie::zeroed {

namespace {

struct Mapping
{
    void *p;
    size_t bytes;
};

// Plain arrays and counters, so an array destroyed during static
// teardown still finds the pool intact.
Mapping pool[kPoolMappings];
size_t poolCount = 0;
size_t poolBytes = 0;

size_t
pageSize()
{
    static const size_t ps = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return ps;
}

size_t
roundToPages(size_t bytes)
{
    size_t ps = pageSize();
    return (bytes + ps - 1) / ps * ps;
}

/** Reading a mapping's residency (one pread of its pagemap) costs as
 *  much as zeroing a few resident pages, so mappings up to this size
 *  are zeroed whole. */
constexpr size_t kZeroWholePages = 8;

/** This process's pagemap: -1 when it cannot be read, -2 until the
 *  first use opens it. */
int pagemap = -2;

/** A forked child must read its own pagemap: the inherited descriptor
 *  names the parent's, since /proc/self resolves when opened. */
void
forgetPagemap()
{
    if (pagemap >= 0)
        close(pagemap);
    pagemap = -2;
}

int
pagemapFd()
{
    if (pagemap == -2) {
        static const bool hooked =
            pthread_atfork(nullptr, nullptr, forgetPagemap) == 0;
        pagemap = hooked ? open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC)
                         : -1;
    }
    return pagemap;
}

/** Zero every page of [p, p + bytes) that can hold data; false when
 *  residency cannot be read. */
bool
scrub(void *p, size_t bytes)
{
    constexpr uint64_t kPresent = 1ULL << 63;
    constexpr uint64_t kSwapped = 1ULL << 62;
    constexpr size_t kBatch = 512;

    const size_t ps = pageSize();
    auto *base = static_cast<char *>(p);
    const size_t pages = bytes / ps;
    if (pages <= kZeroWholePages) {
        std::memset(base, 0, bytes);
        return true;
    }
    int fd = pagemapFd();
    if (fd < 0)
        return false;
    const auto firstPage = reinterpret_cast<uintptr_t>(p) / ps;
    uint64_t ent[kBatch];
    for (size_t at = 0; at < pages; at += kBatch) {
        size_t n = std::min(pages - at, kBatch);
        ssize_t want = static_cast<ssize_t>(n * sizeof(uint64_t));
        off_t off = static_cast<off_t>((firstPage + at) * sizeof(uint64_t));
        ssize_t got = 0;
        do {
            got = pread(fd, ent, static_cast<size_t>(want), off);
        } while (got < 0 && errno == EINTR);
        if (got != want)
            return false;
        for (size_t i = 0; i < n; ++i) {
            char *page = base + (at + i) * ps;
            if (ent[i] & kPresent)
                std::memset(page, 0, ps);
            else if (ent[i] & kSwapped)
                madvise(page, ps, MADV_DONTNEED);
        }
    }
    return true;
}

/** A fresh mapping of @p bytes (whole pages, at least kHugeBytes),
 *  aligned to kHugeBytes: map one extent more, then trim both ends. */
void *
mapHuge(size_t bytes)
{
    const size_t span = bytes + kHugeBytes;
    void *raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const auto start = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t p = (start + kHugeBytes - 1) & ~(kHugeBytes - 1);
    if (p > start)
        munmap(raw, p - start);
    if (start + span > p + bytes)
        munmap(reinterpret_cast<void *>(p + bytes), start + span - p - bytes);
    adviseHuge(reinterpret_cast<void *>(p), bytes);
    return reinterpret_cast<void *>(p);
}

} // namespace

void
adviseHuge(void *p, size_t bytes)
{
    const auto at = reinterpret_cast<uintptr_t>(p);
    const uintptr_t first = (at + kHugeBytes - 1) & ~(kHugeBytes - 1);
    const uintptr_t last = (at + bytes) & ~(kHugeBytes - 1);
    if (last > first)
        madvise(reinterpret_cast<void *>(first), last - first,
                MADV_HUGEPAGE);
}

void *
acquire(size_t bytes)
{
    bytes = roundToPages(bytes);
    if (bytes >= kHugeBytes)
        return mapHuge(bytes);
    // Newest first: its pages are the likeliest to be cache-warm.
    for (size_t i = poolCount; i-- > 0;) {
        if (pool[i].bytes != bytes)
            continue;
        void *p = pool[i].p;
        pool[i] = pool[--poolCount];
        poolBytes -= bytes;
        return p;
    }
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
release(void *p, size_t bytes)
{
    bytes = roundToPages(bytes);
    if (bytes < kHugeBytes && poolCount < kPoolMappings &&
        poolBytes + bytes <= kPoolBytes && scrub(p, bytes)) {
        pool[poolCount++] = {p, bytes};
        poolBytes += bytes;
        return;
    }
    munmap(p, bytes);
}

size_t
pooled()
{
    return poolCount;
}

} // namespace minjie::zeroed
