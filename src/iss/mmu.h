/**
 * @file
 * Sv39 MMU: translation, page-table walking, and a small functional TLB.
 *
 * This is the functional translation path shared by the interpreters;
 * the cycle model adds its own timing TLBs (uarch/tlb.h) on top. The
 * speculative-TLB diff-rule of the paper (Figure 3) exists because a
 * DUT's cached translation may be staler than this walker's view.
 */

#ifndef MINJIE_ISS_MMU_H
#define MINJIE_ISS_MMU_H

#include <functional>

#include "common/types.h"
#include "iss/arch_state.h"
#include "mem/bus.h"

namespace minjie::iss {

enum class Access : uint8_t { Fetch, Load, Store };

/** Statistics exposed for tests and perf counters. */
struct MmuStats
{
    uint64_t tlbHits = 0;
    uint64_t tlbMisses = 0;
    uint64_t pageWalks = 0;
    uint64_t pageFaults = 0;
};

class Mmu
{
  public:
    Mmu(ArchState &state, mem::MemPort &mem) : st_(state), mem_(mem)
    {
        flushTlb();
    }

    /**
     * Translate @p vaddr for @p acc; on success @p paddr holds the
     * physical address and Trap::none() is returned.
     */
    isa::Trap translate(Addr vaddr, Access acc, Addr &paddr);

    /** Virtual load with translation and misalignment handling. */
    isa::Trap load(Addr vaddr, unsigned size, uint64_t &data);

    /** Virtual store. */
    isa::Trap store(Addr vaddr, unsigned size, uint64_t data);

    /**
     * Fetch one instruction at @p vaddr (16-bit aware; handles fetches
     * that cross a page boundary).
     */
    isa::Trap fetch(Addr vaddr, uint32_t &raw);

    /** sfence.vma: drop all cached translations. */
    void flushTlb();

    /**
     * Shootdown hook invoked whenever the functional TLB is flushed
     * (sfence.vma, satp change). Fast interpreters caching derived
     * translations (e.g. NEMU's host-pointer TLB) register here so a
     * guest TLB flush also drops their cached host mappings.
     */
    void setFlushHook(std::function<void()> hook)
    {
        flushHook_ = std::move(hook);
    }

    /** True when translation is active for @p acc (MPRV applies to
     *  loads and stores, not to fetches). */
    bool translationOn(Access acc) const;

    const MmuStats &stats() const { return stats_; }
    mem::MemPort &mem() { return mem_; }

    /**
     * Let translation and data accesses that land in @p dram bypass
     * the bus's virtual dispatch. Optional; when unset every access
     * goes through the generic port as before.
     */
    void bindDram(mem::PhysMem *dram) { dram_ = dram; }

    /** Last translated physical address (probe support). */
    Addr lastPaddr() const { return lastPaddr_; }

  private:
    struct TlbEntry
    {
        Addr vpn = ~0ULL;
        Addr ppn = 0;
        uint8_t perms = 0; // pte low bits (V/R/W/X/U/A/D)
        bool valid = false;
    };

    static constexpr unsigned TLB_SIZE = 256;

    isa::Trap walk(Addr vaddr, Access acc, isa::Priv eff_priv, Addr &paddr);
    isa::Priv effectivePriv(Access acc) const;
    isa::Exc faultFor(Access acc) const;

    /**
     * Direct DRAM access used when the target range is known to be
     * backed by @p dram_: the bus would route there anyway, so this
     * skips the virtual dispatch on the fetch/load/store hot path.
     * Falls back to the full bus for MMIO and unbound ports.
     */
    bool
    readPhys(Addr paddr, unsigned size, uint64_t &data)
    {
        if (dram_ && dram_->contains(paddr, size))
            return dram_->read(paddr, size, data);
        return mem_.read(paddr, size, data);
    }

    bool
    writePhys(Addr paddr, unsigned size, uint64_t data)
    {
        if (dram_ && dram_->contains(paddr, size))
            return dram_->write(paddr, size, data);
        return mem_.write(paddr, size, data);
    }

    ArchState &st_;
    mem::MemPort &mem_;
    mem::PhysMem *dram_ = nullptr;
    TlbEntry tlb_[TLB_SIZE];
    MmuStats stats_;
    Addr lastPaddr_ = 0;
    std::function<void()> flushHook_;
};

} // namespace minjie::iss

#endif // MINJIE_ISS_MMU_H
