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
 * Mapped pages (map) are read in place: read() serves their bytes from
 * the mapped source, and the page is copied into a private page only by
 * its first write or when hostPage() must hand out a writable pointer. A
 * run that only reads an image thus copies none of it. Each map() call
 * holds one reference to the source's owner, released by clear() or the
 * destructor, so a mapped source outlives whatever built it (a
 * temporary Program, a closed pack reader).
 *
 * Aliases: readPage() hands out a read-only pointer that may be the
 * mapped source itself. Such a pointer goes stale when its page is
 * copied (or mapped again); copies() counts those events and
 * lastCopied() names the latest, so a holder of cached page pointers
 * re-reads them when the count moves. A private page never moves, so
 * a pointer to one stays valid until clear().
 *
 * Dirty tracking: the write-capable accessors (write, load, map,
 * hostPage) mark their page dirty; read() and readPage() never do, not
 * even when they allocate a zero page, since that does not change what
 * the page reads as. clearDirty() empties the set and bumps epoch(), so
 * a host pointer handed out by hostPage() before the clear — which
 * could write without marking — is dropped by its holder before the
 * next write (NEMU checks epoch() at every run()). The checkpoint pack
 * writer uses the set to re-hash only the pages written since the
 * previous snapshot.
 */
class PhysMem
{
  public:
    static constexpr unsigned PAGE_SHIFT = 12;
    static constexpr Addr PAGE_SIZE = 1ULL << PAGE_SHIFT;
    static constexpr Addr PAGE_MASK = PAGE_SIZE - 1;

    /** Keeps a mapped source alive: whatever frees its bytes. */
    using Owner = std::shared_ptr<const void>;

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

    /** Bulk copy-in (checkpoint restore, partial pages of map()): one
     *  memcpy per page-sized chunk. */
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
     * load() that backs each whole page of [@p addr, @p addr + @p len)
     * with the bytes at @p src in place instead of copying them; the
     * partial pages at either end are copied. Reads are served from
     * @p src until a page's first write or a hostPage() call copies it
     * into a private page. A page that already has a private copy is
     * overwritten at once. @p owner must keep @p src alive and
     * unchanged; this memory holds one reference to it until clear().
     */
    void
    map(Addr addr, const uint8_t *src, size_t len, Owner owner)
    {
        const Addr end = addr + len;
        const Addr lo = std::min((addr + PAGE_MASK) & ~PAGE_MASK, end);
        const Addr hi = std::max(end & ~PAGE_MASK, lo);
        load(addr, src, lo - addr);
        if (lo < hi) {
            // Consecutive ranges of one owner (a pack restore maps its
            // pool page by page) share one reference.
            if (owners_.empty() || owners_.back() != owner)
                owners_.push_back(std::move(owner));
            const auto idx = static_cast<uint32_t>(owners_.size() - 1);
            for (Addr a = lo; a < hi; a += PAGE_SIZE)
                mapPage(a, src + (a - addr), idx);
        }
        load(hi, src + (hi - addr), end - hi);
    }

    /**
     * load() that maps, sharing @p peer's owner, each whole page that
     * @p peer reads in place from these same source bytes, so two
     * memories loaded from one image hold one copy of it. Other pages
     * are copied: @p src need not outlive the call.
     */
    void
    loadSharing(const PhysMem &peer, Addr addr, const void *src,
                size_t len)
    {
        const auto *s = static_cast<const uint8_t *>(src);
        while (len) {
            size_t n = std::min<size_t>(len, PAGE_SIZE - (addr & PAGE_MASK));
            const Owner *owner =
                n == PAGE_SIZE ? peer.sourceOwner(addr, s) : nullptr;
            if (owner)
                map(addr, s, n, *owner);
            else
                load(addr, s, n);
            addr += n;
            s += n;
            len -= n;
        }
    }

    /** The owner of the page at @p base when that page still reads in
     *  place from @p src, else nullptr. */
    const Owner *
    sourceOwner(Addr base, const uint8_t *src) const
    {
        auto it = pages_.find(base >> PAGE_SHIFT);
        if (it == pages_.end() || it->second.page || it->second.src != src)
            return nullptr;
        return &owners_[it->second.owner];
    }

    /**
     * Stable writable host base pointer of the whole 4K page containing
     * @p addr, or nullptr when that page is not fully inside DRAM. Marks
     * the page dirty (copying a mapped page). The pointer stays valid
     * until clear(), but may be written through only until epoch() next
     * changes: a write after clearDirty() would not be marked.
     */
    uint8_t *
    hostPage(Addr addr)
    {
        Addr pageBase = addr & ~PAGE_MASK;
        if (!contains(pageBase, PAGE_SIZE))
            return nullptr;
        return writePtr(pageBase);
    }

    /**
     * Read-only base pointer of the whole 4K page containing @p addr,
     * or nullptr when that page is not fully inside DRAM. Copies and
     * marks nothing: for a mapped page it is the source itself, valid
     * only until copies() next changes; for a private page, until
     * clear().
     */
    const uint8_t *
    readPage(Addr addr)
    {
        Addr pageBase = addr & ~PAGE_MASK;
        if (!contains(pageBase, PAGE_SIZE))
            return nullptr;
        return hint(pageBase >> PAGE_SHIFT).read;
    }

    /** Times a mapped page stopped reading from its source, by a copy
     *  into a private page or by a map() of other bytes. Only grows. */
    uint64_t copies() const { return copies_; }
    /** Base of the page of the latest copies() event. */
    Addr lastCopied() const { return lastCopied_; }
    /** Pages map() has backed in place. Only grows. */
    uint64_t mappedPages() const { return mapped_; }

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

    /** Drop all contents, mapped sources (releasing their owners) and
     *  the dirty set (used when restoring a checkpoint); bumps epoch().
     */
    void
    clear()
    {
        pages_.clear();
        owners_.clear();
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
        uint32_t owner = 0; ///< owners_ index of src's owner
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

    /** Back the page at @p base with @p src, owned by owners_[@p owner]. */
    void
    mapPage(Addr base, const uint8_t *src, uint32_t owner)
    {
        Addr pfn = base >> PAGE_SHIFT;
        Slot &slot = pages_[pfn];
        markDirty(slot, pfn);
        if (slot.page) {
            std::memcpy(slot.page.get(), src, PAGE_SIZE);
            return;
        }
        if (slot.src && slot.src != src)
            noteCopy(pfn);
        slot.src = src;
        slot.owner = owner;
        ++mapped_;
        Hint &h = hints_[pfn & (kHints - 1)];
        if (h.pfn == pfn)
            h = {};
    }

    void
    noteCopy(Addr pfn)
    {
        ++copies_;
        lastCopied_ = pfn << PAGE_SHIFT;
    }

    [[gnu::noinline]] Hint &
    own(Hint &h)
    {
        Slot &slot = *h.slot;
        noteCopy(h.pfn);
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
    std::vector<Owner> owners_; ///< one per map() range, until clear()
    std::vector<Addr> dirty_;   ///< pfns with Slot::dirty set
    Hint hints_[kHints];      ///< [pfn % kHints], see hint()
    uint64_t epoch_;
    uint64_t copies_ = 0;
    Addr lastCopied_ = 0;
    uint64_t mapped_ = 0;
};

} // namespace minjie::mem

#endif // MINJIE_MEM_PHYSMEM_H
