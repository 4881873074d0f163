/**
 * @file
 * NEMU: the fast threaded-code RV64 interpreter (paper Section III-D).
 *
 * Faithfully reimplements the performance techniques of Figure 7:
 *  - a trace-organized uop cache storing fully-decoded results (operand
 *    register pointers, inlined immediates, handler addresses), with
 *    entries allocated sequentially along the dynamic instruction
 *    stream so intra-block advance is "+1" and conflict misses cannot
 *    occur (entries are only dropped by whole-cache flushes);
 *  - threaded-code dispatch via computed goto;
 *  - block chaining: direct branches/jumps cache the uop index of their
 *    resolved successor (patched on first execution, dropped on cache
 *    flush), superblocks are formed across unconditional direct jumps
 *    so hot traces are laid out contiguously, and indirect jumps keep a
 *    one-entry inline target cache backed by the pc table;
 *  - a software load/store fast path: a small direct-mapped
 *    host-pointer TLB (virtual page -> host page base) filled from
 *    successful MMU walks, so the common Sv39/bare hit skips
 *    Mmu::translate and the bus entirely; shot down on sfence.vma,
 *    satp/mstatus writes, privilege changes and DRAM snapshot restore;
 *  - the zero-register redirect: uops targeting x0 write to a sink
 *    variable instead of checking rd on every instruction;
 *  - host floating point execution (fp::FpBackend::Host);
 *  - pseudo-instruction specialization (e.g. a jal with rd=x0 uses a
 *    link-free handler; li-like addi with rs1=x0 loads the immediate).
 *
 * BBV profiling for SimPoint (profileBbvs) and the tracing block hook
 * (setBlockHook) share one block tracker inside the same threaded
 * engine, a compile-time specialization with its own handler table,
 * so the plain engine carries no profiling code.
 *
 * Block chaining and the memory fast path can be ablated independently
 * (setChainingEnabled / setFastPathEnabled) for the Figure 8 speedup
 * breakdown and the `--nemu-no-chain` / `--nemu-no-fastpath` flags.
 *
 * NEMU also doubles as the DiffTest REF (paper Section III-B): DiffTest
 * drives the Interp::step() path, which executes through the same uop
 * cache one instruction at a time with probe extraction; straight-line
 * steps take the next cached uop without a pc table lookup. run(1)
 * drives the chained engine with per-instruction granularity.
 */

#ifndef MINJIE_NEMU_NEMU_H
#define MINJIE_NEMU_NEMU_H

#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "iss/interp.h"
#include "mem/physmem.h"
#include "nemu/pc_table.h"

namespace minjie::nemu {

/**
 * One interval's basic-block execution profile: instructions executed
 * in blocks starting at each pc. A sorted map: SimPoint's random
 * projection accumulates floating-point terms in iteration order, so
 * an unordered container would make the clustering depend on the
 * hash-table layout of the host's standard library.
 */
using Bbv = std::map<Addr, uint64_t>;

/** Statistics from the uop cache and the memory fast path. */
struct NemuStats
{
    uint64_t uopHits = 0;      ///< dispatches served from the cache
    uint64_t translations = 0; ///< instructions fetched+decoded
    uint64_t flushes = 0;      ///< whole-cache flushes
    uint64_t chainResolves = 0;
    uint64_t superblockJumps = 0; ///< direct jumps followed at translate
    uint64_t hostTlbFills = 0;    ///< host-pointer TLB insertions
    uint64_t hostTlbFlushes = 0;  ///< host-pointer TLB shootdowns
};

class Nemu : public iss::Interp
{
  public:
    /**
     * @param bus         full system bus (MMIO and translated accesses)
     * @param dram        the DRAM behind @p bus, for the direct paths
     * @param uopCacheCap uop cache capacity (paper selects 16384)
     */
    Nemu(mem::MemPort &bus, mem::PhysMem &dram, HartId hart, Addr entry,
         unsigned uopCacheCap = 16384);

    /** Fast threaded-code execution of up to @p maxInsts instructions. */
    iss::RunResult run(InstCount maxInsts) override;

    /** Drop every uop (fence.i, satp change, cache full). Also shoots
     *  down the host-pointer TLB. */
    void flushUopCache();

    /** Interrupt delivery changes privilege: drop cached translations. */
    void
    raiseInterrupt(isa::Irq irq) override
    {
        Interp::raiseInterrupt(irq);
        flushUopCache();
    }

    /**
     * Ablation: disable block chaining (successor caching, superblock
     * formation, the indirect inline cache). Every control transfer
     * then returns to the pc-table dispatch loop.
     */
    void
    setChainingEnabled(bool on)
    {
        chainOn_ = on;
        flushUopCache();
    }

    /**
     * Ablation: disable the memory fast path (host-pointer TLB and the
     * direct-DRAM M-mode shortcut). Every load/store then funnels
     * through Mmu::translate and the bus.
     */
    void
    setFastPathEnabled(bool on)
    {
        fastPathOn_ = on;
        hostTlbFlush();
    }

    bool chainingEnabled() const { return chainOn_; }
    bool fastPathEnabled() const { return fastPathOn_; }

    const NemuStats &stats() const { return stats_; }

    /**
     * Start SimPoint BBV profiling in the threaded engine, counting
     * from the current state. A basic block is a maximal run of retired
     * instructions ending at a control, system or trapping instruction;
     * an interval closes at the first block end at or past
     * @p intervalInsts instructions. Flushes the uop cache: the
     * profiling engine dispatches through its own handler table.
     */
    void profileBbvs(InstCount intervalInsts);

    /**
     * Stop profiling and return one Bbv per interval, the trailing
     * partial one included when any block ended in it. A block still
     * open when the last run() stopped is not counted.
     */
    std::vector<Bbv> takeBbvs();

    /**
     * Block hook for tracing: invoked with (block start pc, block
     * length in instructions) at every block end the BBV profiler
     * counts, so the lengths per start pc sum to its counts. Fires in
     * run()'s profiling engine, never on the step path. Starts block
     * tracking from the current state unless profileBbvs already did;
     * takeBbvs stops it.
     */
    void setBlockHook(std::function<void(Addr, uint32_t)> hook);

  protected:
    isa::Trap stepOnce(iss::ExecInfo *info) override;

  private:
    /**
     * One decoded micro-operation in the trace cache: exactly one cache
     * line of hot state (operand pointers, inlined immediate, chain
     * edges, the fp fast fields). Branches and direct jumps hold their
     * absolute taken-target virtual address in @c imm, so the hot path
     * never touches the cold side.
     */
    struct alignas(64) Uop
    {
        const void *handler = nullptr;
        uint64_t *rd = nullptr;       ///< destination (sink for x0)
        const uint64_t *rs1 = nullptr;
        union {
            const uint64_t *rs2 = nullptr;
            Addr indirPc;             ///< jalr/ret: inline-cache key
        };
        int64_t imm = 0;              ///< immediate / absolute target va
        Addr pc = 0;
        int32_t next = -1;            ///< chained fallthrough uop
        int32_t target = -1;          ///< taken-target / indirect-cache uop
        uint8_t size = 4;
        uint8_t rm = 0;               ///< fp rounding mode field
        uint8_t rs3 = 0;              ///< fp fma third operand index
        isa::Op op = isa::Op::Illegal;
        /** BBV profiling: slot of the block starting here, or -1 when
         *  not yet resolved (or past the 16-bit range: looked up by pc
         *  at every block end instead). */
        int16_t bbvSlot = -1;
    };
    static_assert(sizeof(void *) != 8 || sizeof(Uop) == 64,
                  "hot uop must stay one cache line");

    /** Cold per-uop state, indexed in lockstep with the hot array: the
     *  full decode for the generic executor and probe extraction. */
    struct UopCold
    {
        isa::DecodedInst di;
    };

    /**
     * Host-pointer TLB entry: virtual page -> host base of the backing
     * DRAM page. Load and store entries are kept in separate ways so a
     * store entry implies a walk that set the PTE dirty bit, and so a
     * load never copies or marks its DRAM page (PhysMem::readPage): a
     * load entry may alias a mapped source, see syncLoadAliases().
     */
    template <typename Byte>
    struct HostTlbEnt
    {
        Addr vpn = ~0ULL;
        Byte *host = nullptr;
    };
    // Sized so the multi-MB working sets of the memory-bound SPEC
    // proxies (4MB = 1024 pages) map without conflict: 1024 x 16B =
    // 16KB per way, far cheaper per hit than the sparse-page hash
    // lookup it replaces.
    static constexpr unsigned HTLB_SIZE = 1024;
    static constexpr Addr HTLB_MASK = HTLB_SIZE - 1;

    /** Find (or translate) the uop index for @p pc; -1 on fetch trap. */
    int32_t lookupOrTranslate(Addr pc, isa::Trap &trap);

    /** Translate one basic block (superblock across direct jumps when
     *  chaining is on) starting at @p pc into the cache. */
    int32_t translateBlock(Addr pc, isa::Trap &trap);

    /** Assign the threaded-code handler for @p di into @p u. */
    void assignHandler(Uop &u, const isa::DecodedInst &di);

    /** True when the direct-DRAM fast path is usable. */
    bool
    fastMemOk() const
    {
        return st_.priv == isa::Priv::M &&
               (st_.csr.mstatus & isa::MSTATUS_MPRV) == 0;
    }

    /** Install the mapping @p vaddr -> @p paddr's page into one of the
     *  host-pointer TLB ways. */
    template <typename Byte>
    void
    hostTlbFillPhys(HostTlbEnt<Byte> *way, Addr vaddr, Addr paddr,
                    unsigned size)
    {
        Byte *hp = nullptr;
        // Only aligned (single-page) accesses are cached.
        if ((vaddr & (size - 1)) == 0) {
            if constexpr (std::is_const_v<Byte>)
                hp = dram_.readPage(paddr);
            else
                hp = dram_.hostPage(paddr);
        }
        // The access that led here, or the store fill itself, may have
        // copied a page some load entry aliases.
        syncLoadAliases();
        if (!hp)
            return; // misaligned, MMIO or past the end of DRAM
        HostTlbEnt<Byte> &e = way[(vaddr >> 12) & HTLB_MASK];
        e.vpn = vaddr >> 12;
        e.host = hp;
        ++stats_.hostTlbFills;
    }

    /** Install @p vaddr's translation (just completed by the MMU) into
     *  one of the host-pointer TLB ways. */
    template <typename Byte>
    void
    hostTlbFill(HostTlbEnt<Byte> *way, Addr vaddr, unsigned size)
    {
        hostTlbFillPhys(way, vaddr, mmu_.lastPaddr(), size);
    }

    /**
     * Keep the load way current with the DRAM's copies
     * (PhysMem::copies): an entry aliasing a mapped source goes stale
     * once that page is copied. One copy without translation can only
     * sit in its page's identity entry, which is re-pointed at the
     * copy; otherwise the load way is dropped.
     */
    void
    syncLoadAliases()
    {
        const uint64_t copies = dram_.copies();
        if (copies == copiesSeen_)
            return;
        if (copies == copiesSeen_ + 1 &&
            !mmu_.translationOn(iss::Access::Load)) {
            const Addr page = dram_.lastCopied();
            HostTlbEnt<const uint8_t> &e = ldTlb_[(page >> 12) & HTLB_MASK];
            if (e.vpn == page >> 12)
                e.host = dram_.readPage(page);
        } else {
            for (auto &e : ldTlb_)
                e.vpn = ~0ULL;
        }
        copiesSeen_ = copies;
    }

    /** Shoot down the host-pointer TLB and restamp the translation
     *  regime it was filled under. */
    void
    hostTlbFlush()
    {
        for (auto &e : ldTlb_)
            e.vpn = ~0ULL;
        for (auto &e : stTlb_)
            e.vpn = ~0ULL;
        ++stats_.hostTlbFlushes;
        stampRegime();
    }

    /** Record the translation regime the host TLB contents assume. */
    void
    stampRegime()
    {
        regimeSatp_ = st_.csr.satp;
        regimeMstatus_ = st_.csr.mstatus;
        regimePriv_ = st_.priv;
        regimeEpoch_ = dram_.epoch();
        copiesSeen_ = dram_.copies();
    }

    /** True when state mutated outside run() invalidates the TLB —
     *  including a DRAM clearDirty(), after which a cached store
     *  pointer would write without marking its page. */
    bool
    regimeChanged() const
    {
        return regimeSatp_ != st_.csr.satp ||
               regimeMstatus_ != st_.csr.mstatus ||
               regimePriv_ != st_.priv || regimeEpoch_ != dram_.epoch();
    }

    mem::PhysMem &dram_;
    unsigned cap_;
    std::vector<Uop> uops_;
    std::vector<UopCold> cold_;
    PcTable pcMap_; ///< pc -> uop index, cleared by each flush
    NemuStats stats_;
    uint64_t sink_ = 0; ///< zero-register write target
    bool chainOn_ = true;
    bool fastPathOn_ = true;
    HostTlbEnt<const uint8_t> ldTlb_[HTLB_SIZE];
    HostTlbEnt<uint8_t> stTlb_[HTLB_SIZE];
    uint64_t regimeSatp_ = 0;
    uint64_t regimeMstatus_ = 0;
    isa::Priv regimePriv_ = isa::Priv::M;
    uint64_t regimeEpoch_ = 0;
    uint64_t copiesSeen_ = 0; ///< dram_.copies() the load way matches
    std::function<void(Addr, uint32_t)> blockHook_;
    int32_t stepIdx_ = -1; ///< uop index of the last step, or -1

    /** Block tracker state (profileBbvs or setBlockHook to takeBbvs).
     *  Counts live in per-slot arrays; each block-start pc owns one
     *  slot, which the hot uop caches, so a block end costs no map
     *  lookup. */
    struct BbvProfile
    {
        InstCount intervalInsts = 0;
        PcTable slotOf;
        std::vector<Addr> slotPc;
        std::vector<uint64_t> count;  ///< per slot, current interval
        std::vector<int32_t> touched; ///< slots counted this interval
        std::vector<Bbv> intervals;
        Addr blockPc = 0;        ///< start pc of the open block
        int32_t blockSlot = -1;  ///< its slot, or -1 if unresolved
        InstCount blockMark = 0; ///< instret at the open block's start
        InstCount intervalMark = 0;
    };
    std::unique_ptr<BbvProfile> prof_;

    /** Slot of the block starting at @p pc, created on first use. */
    int32_t bbvSlot(Addr pc);
    /** End the open block with @p retired instructions retired in
     *  total; the next block starts at @p nextPc. */
    void bbvEnd(InstCount retired, Addr nextPc);
    void bbvCloseInterval();

    // Handler dispatch tables (plain and BBV-profiling engine), filled
    // on first use.
    static const void *const *handlerTable(bool profiling);
    const void *const *
    handlers() const
    {
        return handlerTable(prof_ != nullptr);
    }
    friend struct NemuExec;
};

} // namespace minjie::nemu

#endif // MINJIE_NEMU_NEMU_H
