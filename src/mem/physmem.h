/**
 * @file
 * Sparse physical memory backing the simulated DRAM.
 */

#ifndef MINJIE_MEM_PHYSMEM_H
#define MINJIE_MEM_PHYSMEM_H

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace minjie::mem {

/**
 * Byte-addressable sparse memory. Pages are allocated on first touch so
 * a 16 GB guest-physical space costs only what the workload dirties —
 * this is also what makes LightSSS fork()/COW snapshots cheap.
 *
 * Dirty tracking: every write-capable accessor (write, load, mapPage,
 * hostPage) marks its page dirty, and so does the first touch that
 * allocates a page or copies a mapped one; read() and hostPageRO() do
 * not. clearDirty() empties the set and bumps epoch(), so a host
 * pointer handed out by hostPage() before the clear — which could
 * write without marking — is dropped by its holder before the next
 * write (NEMU checks epoch() at every run()). The checkpoint pack
 * writer uses the set to re-hash only the pages written since the
 * previous snapshot.
 */
class PhysMem
{
  public:
    static constexpr unsigned PAGE_SHIFT = 12;
    static constexpr Addr PAGE_SIZE = 1ULL << PAGE_SHIFT;
    static constexpr Addr PAGE_MASK = PAGE_SIZE - 1;

    /** @param base  lowest valid address  @param size  bytes of DRAM */
    PhysMem(Addr base, uint64_t size)
        : base_(base), size_(size), epoch_(nextEpoch())
    {
    }

    Addr base() const { return base_; }
    uint64_t size() const { return size_; }

    bool
    contains(Addr addr, unsigned bytes = 1) const
    {
        return addr >= base_ && addr + bytes <= base_ + size_;
    }

    /**
     * Read @p size bytes (1/2/4/8) at @p addr into @p data.
     * Misaligned and page-crossing accesses are handled bytewise.
     * @return false if the range is outside DRAM.
     */
    bool
    read(Addr addr, unsigned size, uint64_t &data)
    {
        if (!contains(addr, size))
            return false;
        data = 0;
        if (((addr & PAGE_MASK) + size) <= PAGE_SIZE) {
            std::memcpy(&data, readPtr(addr), size);
        } else {
            for (unsigned i = 0; i < size; ++i)
                data |= static_cast<uint64_t>(*readPtr(addr + i)) << (8 * i);
        }
        return true;
    }

    /** Write @p size bytes of @p data at @p addr. */
    bool
    write(Addr addr, unsigned size, uint64_t data)
    {
        if (!contains(addr, size))
            return false;
        if (((addr & PAGE_MASK) + size) <= PAGE_SIZE) {
            std::memcpy(writePtr(addr), &data, size);
        } else {
            for (unsigned i = 0; i < size; ++i)
                *writePtr(addr + i) = static_cast<uint8_t>(data >> (8 * i));
        }
        return true;
    }

    /** Bulk copy-in (program loader, checkpoint restore): one memcpy
     *  per page-sized chunk. */
    void
    load(Addr addr, const void *src, size_t len)
    {
        const auto *s = static_cast<const uint8_t *>(src);
        while (len) {
            size_t n = std::min<size_t>(len, PAGE_SIZE - (addr & PAGE_MASK));
            std::memcpy(writePtr(addr), s, n);
            addr += n;
            s += n;
            len -= n;
        }
    }

    /**
     * Back the page at page-aligned @p base with the read-only bytes at
     * @p src without copying them. The first touch of the page through
     * any accessor, read or write, copies them into a private page, so
     * no pointer handed out by hostPage/hostPageRO ever aliases @p src.
     * @p src must stay valid until the next clear().
     */
    void
    mapPage(Addr base, const uint8_t *src)
    {
        Addr pfn = base >> PAGE_SHIFT;
        Slot &slot = pages_[pfn];
        markDirty(slot, pfn);
        if (slot.page)
            std::memcpy(slot.page->data(), src, PAGE_SIZE);
        else
            slot.src = src;
    }

    /**
     * Stable writable host base pointer of the whole 4K page containing
     * @p addr, or nullptr when that page is not fully inside DRAM. Marks
     * the page dirty. The pointer stays valid until clear(), but may be
     * written through only until epoch() next changes: a write after
     * clearDirty() would not be marked.
     */
    uint8_t *
    hostPage(Addr addr)
    {
        Addr pageBase = addr & ~PAGE_MASK;
        if (!contains(pageBase, PAGE_SIZE))
            return nullptr;
        return writePtr(pageBase);
    }

    /** Read-only hostPage(): does not mark the page dirty (unless this
     *  first touch allocates it). Valid until clear(). */
    const uint8_t *
    hostPageRO(Addr addr)
    {
        Addr pageBase = addr & ~PAGE_MASK;
        if (!contains(pageBase, PAGE_SIZE))
            return nullptr;
        return readPtr(pageBase);
    }

    /**
     * Changed by clear() and clearDirty(). Values are unique across all
     * PhysMem objects of the process, so an equal epoch() means "the
     * same memory, with no clear since": cached hostPage() pointers are
     * still writable and the dirty set covers every write since then.
     */
    uint64_t epoch() const { return epoch_; }

    /** Number of pages currently allocated, mapped ones included. */
    size_t allocatedPages() const { return pages_.size(); }

    /** Number of pages dirtied since the last clearDirty()/clear(). */
    size_t dirtyPages() const { return dirty_.size(); }

    /**
     * Visit every allocated page in ascending address order (for
     * checkpoints and SSS snapshots); a mapped page never touched is
     * visited through its source. Sorted visitation is load-bearing:
     * consumers serialize the pages, and two runs that touched the same
     * pages in different orders must produce identical images.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        std::vector<Addr> pfns;
        pfns.reserve(pages_.size());
        // lint:allow MJ-DET2-001 keys are sorted below before any visit
        for (const auto &[pfn, page] : pages_)
            pfns.push_back(pfn);
        std::sort(pfns.begin(), pfns.end());
        visit(pfns, fn);
    }

    /** forEachPage() restricted to the dirty pages. */
    template <typename Fn>
    void
    forEachDirtyPage(Fn &&fn) const
    {
        std::vector<Addr> pfns = dirty_;
        std::sort(pfns.begin(), pfns.end());
        visit(pfns, fn);
    }

    /** Empty the dirty set; bumps epoch(). */
    void
    clearDirty()
    {
        for (Addr pfn : dirty_)
            pages_.find(pfn)->second.dirty = false;
        dirty_.clear();
        lastWPfn_ = ~0ULL;
        epoch_ = nextEpoch();
    }

    /** Drop all contents, mapped sources and the dirty set (used when
     *  restoring a checkpoint); bumps epoch(). */
    void
    clear()
    {
        pages_.clear();
        dirty_.clear();
        lastPfn_ = lastWPfn_ = ~0ULL;
        epoch_ = nextEpoch();
    }

  private:
    using Page = std::vector<uint8_t>;

    /** A private page, or until its first touch a mapped source. */
    struct Slot
    {
        std::unique_ptr<Page> page;
        const uint8_t *src = nullptr;
        bool dirty = false;
    };

    static uint64_t
    nextEpoch()
    {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
    }

    void
    markDirty(Slot &slot, Addr pfn)
    {
        if (!slot.dirty) {
            slot.dirty = true;
            dirty_.push_back(pfn);
        }
    }

    /** The slot of @p pfn with a private page, allocating (or copying
     *  a mapped source into) one on first touch — which marks it. */
    Slot &
    touch(Addr pfn)
    {
        Slot &slot = pages_[pfn];
        if (!slot.page) {
            slot.page = slot.src ? std::make_unique<Page>(
                                       slot.src, slot.src + PAGE_SIZE)
                                 : std::make_unique<Page>(PAGE_SIZE, 0);
            slot.src = nullptr;
            markDirty(slot, pfn);
        }
        return slot;
    }

    const uint8_t *
    readPtr(Addr addr)
    {
        Addr pfn = addr >> PAGE_SHIFT;
        if (pfn != lastPfn_) {
            lastPage_ = touch(pfn).page->data();
            lastPfn_ = pfn;
        }
        return lastPage_ + (addr & PAGE_MASK);
    }

    /** Like readPtr(), but marks the page. Its one-entry cache only
     *  ever holds a page marked since the last clearDirty(), so a hit
     *  never skips the mark. */
    uint8_t *
    writePtr(Addr addr)
    {
        Addr pfn = addr >> PAGE_SHIFT;
        if (pfn != lastWPfn_) {
            Slot &slot = touch(pfn);
            markDirty(slot, pfn);
            lastWPage_ = lastPage_ = slot.page->data();
            lastWPfn_ = lastPfn_ = pfn;
        }
        return lastWPage_ + (addr & PAGE_MASK);
    }

    /** Call fn(base, bytes) for each page of @p pfns. */
    template <typename Fn>
    void
    visit(const std::vector<Addr> &pfns, Fn &fn) const
    {
        for (Addr pfn : pfns) {
            const Slot &slot = pages_.find(pfn)->second;
            fn(pfn << PAGE_SHIFT,
               slot.page ? slot.page->data() : slot.src);
        }
    }

    Addr base_;
    uint64_t size_;
    std::unordered_map<Addr, Slot> pages_;
    std::vector<Addr> dirty_; ///< pfns with Slot::dirty set
    Addr lastPfn_ = ~0ULL;    ///< one-entry caches (read, write)
    uint8_t *lastPage_ = nullptr;
    Addr lastWPfn_ = ~0ULL;
    uint8_t *lastWPage_ = nullptr;
    uint64_t epoch_;
};

} // namespace minjie::mem

#endif // MINJIE_MEM_PHYSMEM_H
