/**
 * @file
 * Sparse physical memory backing the simulated DRAM.
 */

#ifndef MINJIE_MEM_PHYSMEM_H
#define MINJIE_MEM_PHYSMEM_H

#include <algorithm>
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
 */
class PhysMem
{
  public:
    static constexpr unsigned PAGE_SHIFT = 12;
    static constexpr Addr PAGE_SIZE = 1ULL << PAGE_SHIFT;
    static constexpr Addr PAGE_MASK = PAGE_SIZE - 1;

    /** @param base  lowest valid address  @param size  bytes of DRAM */
    PhysMem(Addr base, uint64_t size) : base_(base), size_(size) {}

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
        uint8_t *p = pagePtr(addr);
        if (((addr & PAGE_MASK) + size) <= PAGE_SIZE) {
            data = 0;
            std::memcpy(&data, p, size);
        } else {
            data = 0;
            for (unsigned i = 0; i < size; ++i)
                data |= static_cast<uint64_t>(*bytePtr(addr + i)) << (8 * i);
        }
        return true;
    }

    /** Write @p size bytes of @p data at @p addr. */
    bool
    write(Addr addr, unsigned size, uint64_t data)
    {
        if (!contains(addr, size))
            return false;
        uint8_t *p = pagePtr(addr);
        if (((addr & PAGE_MASK) + size) <= PAGE_SIZE) {
            std::memcpy(p, &data, size);
        } else {
            for (unsigned i = 0; i < size; ++i)
                *bytePtr(addr + i) = static_cast<uint8_t>(data >> (8 * i));
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
            std::memcpy(bytePtr(addr), s, n);
            addr += n;
            s += n;
            len -= n;
        }
    }

    /**
     * Back the page at page-aligned @p base with the read-only bytes at
     * @p src without copying them. The first touch of the page through
     * any accessor, read or write, copies them into a private page, so
     * no pointer handed out by hostPage/pagePtr ever aliases @p src.
     * @p src must stay valid until the next clear().
     */
    void
    mapPage(Addr base, const uint8_t *src)
    {
        Slot &slot = pages_[base >> PAGE_SHIFT];
        if (slot.page)
            std::memcpy(slot.page->data(), src, PAGE_SIZE);
        else
            slot.src = src;
    }

    /**
     * Host pointer to the page containing @p addr (allocating it). Valid
     * until the next snapshot/restore; used by the fast interpreters.
     */
    uint8_t *pagePtr(Addr addr) { return bytePtr(addr); }

    /**
     * Stable host base pointer of the whole 4K page containing @p addr,
     * or nullptr when that page is not fully inside DRAM. The pointer
     * stays valid until clear() — check epoch() across snapshot/restore
     * boundaries before reusing cached pointers.
     */
    uint8_t *
    hostPage(Addr addr)
    {
        Addr pageBase = addr & ~PAGE_MASK;
        if (!contains(pageBase, PAGE_SIZE))
            return nullptr;
        return bytePtr(pageBase);
    }

    /** Bumped by clear(); invalidates every previously returned page
     *  pointer (hostPage/pagePtr). */
    uint64_t epoch() const { return epoch_; }

    /** Number of pages currently allocated, mapped ones included. */
    size_t allocatedPages() const { return pages_.size(); }

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
        for (Addr pfn : pfns) {
            const Slot &slot = pages_.find(pfn)->second;
            fn(pfn << PAGE_SHIFT,
               slot.page ? slot.page->data() : slot.src);
        }
    }

    /** Drop all contents and mapped sources (used when restoring a
     *  checkpoint). */
    void
    clear()
    {
        pages_.clear();
        lastPfn_ = ~0ULL;
        lastPage_ = nullptr;
        ++epoch_;
    }

  private:
    using Page = std::vector<uint8_t>;

    /** A private page, or until its first touch a mapped source. */
    struct Slot
    {
        std::unique_ptr<Page> page;
        const uint8_t *src = nullptr;
    };

    uint8_t *
    bytePtr(Addr addr)
    {
        Addr pfn = addr >> PAGE_SHIFT;
        if (pfn != lastPfn_) {
            Slot &slot = pages_[pfn];
            if (!slot.page) {
                slot.page = slot.src ? std::make_unique<Page>(
                                           slot.src, slot.src + PAGE_SIZE)
                                     : std::make_unique<Page>(PAGE_SIZE, 0);
                slot.src = nullptr;
            }
            lastPfn_ = pfn;
            lastPage_ = slot.page->data();
        }
        return lastPage_ + (addr & PAGE_MASK);
    }

    Addr base_;
    uint64_t size_;
    std::unordered_map<Addr, Slot> pages_;
    Addr lastPfn_ = ~0ULL;
    uint8_t *lastPage_ = nullptr;
    uint64_t epoch_ = 0;
};

} // namespace minjie::mem

#endif // MINJIE_MEM_PHYSMEM_H
