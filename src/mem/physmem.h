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
 * Mapped pages (mapPage) are read in place: read() serves their bytes
 * from the mapped source, and the page is copied into a private page
 * only by its first write or when hostPage()/hostPageRO() must hand out
 * a stable pointer. A run that only reads an image thus copies none of
 * it.
 *
 * Dirty tracking: the write-capable accessors (write, load, mapPage,
 * hostPage) mark their page dirty; read() and hostPageRO() never do,
 * not even when they allocate a zero page or copy a mapped one, since
 * neither changes what the page reads as. clearDirty() empties the set
 * and bumps epoch(), so a host pointer handed out by hostPage() before
 * the clear — which could write without marking — is dropped by its
 * holder before the next write (NEMU checks epoch() at every run()).
 * The checkpoint pack writer uses the set to re-hash only the pages
 * written since the previous snapshot.
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
    /** Not copied or moved: its page cache points into its own map. */
    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

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
            copyBytes(&data, readPtr(addr), size);
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
            copyBytes(writePtr(addr), &data, size);
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
     * @p src without copying them: reads are served from @p src until
     * the page's first write or a hostPage()/hostPageRO() call copies
     * it into a private page, so no pointer handed out ever aliases
     * @p src. A page that already has a private copy is overwritten at
     * once. @p src must stay valid until the next clear().
     */
    void
    mapPage(Addr base, const uint8_t *src)
    {
        Addr pfn = base >> PAGE_SHIFT;
        Slot &slot = pages_[pfn];
        markDirty(slot, pfn);
        if (slot.page) {
            std::memcpy(slot.page.get(), src, PAGE_SIZE);
        } else {
            slot.src = src;
            Hint &h = hints_[pfn & (kHints - 1)];
            if (h.pfn == pfn)
                h = {};
        }
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

    /** Read-only hostPage(): a private page like hostPage()'s, but the
     *  page is not marked dirty. Valid until clear(). */
    const uint8_t *
    hostPageRO(Addr addr)
    {
        Addr pageBase = addr & ~PAGE_MASK;
        if (!contains(pageBase, PAGE_SIZE))
            return nullptr;
        return ownedHint(pageBase >> PAGE_SHIFT).write;
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
     * checkpoints and SSS snapshots); a mapped page not yet copied is
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
        epoch_ = nextEpoch();
    }

    /** Drop all contents, mapped sources and the dirty set (used when
     *  restoring a checkpoint); bumps epoch(). */
    void
    clear()
    {
        pages_.clear();
        dirty_.clear();
        for (Hint &h : hints_)
            h = {};
        epoch_ = nextEpoch();
    }

  private:

    /** A private page, or until its first write a mapped source. */
    struct Slot
    {
        std::unique_ptr<uint8_t[]> page;
        const uint8_t *src = nullptr;
        bool dirty = false;
    };

    /** memcpy() of an access's 1, 2, 4 or 8 bytes as one move of that
     *  width instead of a library call. */
    template <typename T>
    static void
    move(void *dst, const void *src)
    {
        T v;
        std::memcpy(&v, src, sizeof(T));
        std::memcpy(dst, &v, sizeof(T));
    }
    static void
    copyBytes(void *dst, const void *src, unsigned size)
    {
        switch (size) {
          case 1: move<uint8_t>(dst, src); break;
          case 2: move<uint16_t>(dst, src); break;
          case 4: move<uint32_t>(dst, src); break;
          case 8: move<uint64_t>(dst, src); break;
          default: std::memcpy(dst, src, size); break;
        }
    }

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

    /** The entry of a direct-mapped pfn -> slot cache in front of
     *  pages_, whose nodes stay put until clear(). */
    struct Hint
    {
        Addr pfn = ~0ULL;
        const uint8_t *read = nullptr; ///< private page or mapped source
        uint8_t *write = nullptr;      ///< private page, or nullptr
        Slot *slot = nullptr;
    };
    static constexpr unsigned kHints = 32; ///< pow2

    /** The cache entry of @p pfn, allocating a zero page on the first
     *  touch of a page that is neither allocated nor mapped. */
    Hint &
    hint(Addr pfn)
    {
        Hint &h = hints_[pfn & (kHints - 1)];
        return h.pfn == pfn ? h : fill(h, pfn);
    }

    /** hint() of @p pfn with a private page, copying a mapped source
     *  into one if needed. Marks nothing. */
    Hint &
    ownedHint(Addr pfn)
    {
        Hint &h = hint(pfn);
        return h.write ? h : own(h);
    }

    // The miss paths stay out of line: read() and write() are inlined
    // into every load and store handler of the interpreters.

    [[gnu::noinline]] Hint &
    fill(Hint &h, Addr pfn)
    {
        Slot &slot = pages_[pfn];
        if (!slot.page && !slot.src)
            slot.page = std::make_unique<uint8_t[]>(PAGE_SIZE);
        h = {pfn, slot.page ? slot.page.get() : slot.src, slot.page.get(),
             &slot};
        return h;
    }

    [[gnu::noinline]] Hint &
    own(Hint &h)
    {
        Slot &slot = *h.slot;
        slot.page = std::make_unique_for_overwrite<uint8_t[]>(PAGE_SIZE);
        std::memcpy(slot.page.get(), slot.src, PAGE_SIZE);
        slot.src = nullptr;
        h.read = h.write = slot.page.get();
        return h;
    }

    const uint8_t *
    readPtr(Addr addr)
    {
        return hint(addr >> PAGE_SHIFT).read + (addr & PAGE_MASK);
    }

    /** A private page's byte at @p addr; marks the page. */
    uint8_t *
    writePtr(Addr addr)
    {
        Addr pfn = addr >> PAGE_SHIFT;
        Hint &h = ownedHint(pfn);
        markDirty(*h.slot, pfn);
        return h.write + (addr & PAGE_MASK);
    }

    /** Call fn(base, bytes) for each page of @p pfns. */
    template <typename Fn>
    void
    visit(const std::vector<Addr> &pfns, Fn &fn) const
    {
        for (Addr pfn : pfns) {
            const Slot &slot = pages_.find(pfn)->second;
            fn(pfn << PAGE_SHIFT,
               slot.page ? slot.page.get() : slot.src);
        }
    }

    Addr base_;
    uint64_t size_;
    std::unordered_map<Addr, Slot> pages_;
    std::vector<Addr> dirty_; ///< pfns with Slot::dirty set
    Hint hints_[kHints];      ///< [pfn % kHints], see hint()
    uint64_t epoch_;
};

} // namespace minjie::mem

#endif // MINJIE_MEM_PHYSMEM_H
