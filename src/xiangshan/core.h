/**
 * @file
 * Execution-driven cycle-level model of the XIANGSHAN superscalar
 * out-of-order core (paper Section IV-A, Figure 10).
 *
 * Structure: a decoupled frontend (uBTB/BTB/TAGE-SC/ITTAGE/RAS feeding
 * an IFU with L1I + ITLB timing), decode with macro-op fusion, rename
 * with move elimination, a ROB + distributed reservation stations with
 * configurable issue policy (AGE or PUBS), split store-address/data
 * uops, bank-interleaved load pipes with store-to-load forwarding, a
 * committed store buffer draining into the coherent cache hierarchy.
 *
 * The model is timing-directed: a functional "oracle" hart executes
 * each instruction at fetch, so branch outcomes, memory addresses and
 * results are known exactly; the pipeline model then accounts for when
 * those events would have happened. Mispredictions stall the fetch
 * stream until the branch's resolution cycle (wrong-path instructions
 * are modeled as bubbles, not fetched). Commit fires the DiffTest
 * probes in program order, making this the DUT of the DRAV flow.
 */

#ifndef MINJIE_XIANGSHAN_CORE_H
#define MINJIE_XIANGSHAN_CORE_H

#include <deque>
#include <functional>
#include <vector>

#include "common/zeroed_array.h"
#include "difftest/probes.h"
#include "iss/exec.h"
#include "iss/system.h"
#include "obs/trace.h"
#include "uarch/predictors.h"
#include "xiangshan/config.h"
#include "xiangshan/store_ring.h"

namespace minjie::xs {

/** Performance counters, including the Figure 15 ready-count data. */
struct PerfCounters
{
    Cycle cycles = 0;
    InstCount instrs = 0;
    uint64_t fetchedInstrs = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t indirects = 0;
    uint64_t indirectMispredicts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t storeForwards = 0;
    uint64_t fusedPairs = 0;
    uint64_t movesEliminated = 0;
    uint64_t fetchStallCycles = 0;
    uint64_t stallMispredict = 0; ///< waiting for branch resolution
    uint64_t stallSerialize = 0;  ///< waiting for serializing commit
    uint64_t stallBubble = 0;     ///< frontend redirect/override bubbles
    uint64_t robFullStalls = 0;
    uint64_t rsFullStalls = 0;
    uint64_t highPriorityInsts = 0;
    uint64_t loadDefers = 0;

    /** Per-RS-per-cycle histogram of ready-instruction counts. */
    static constexpr unsigned READY_BUCKETS = 9; // 0..7, 8+
    uint64_t readyHist[READY_BUCKETS] = {};
    uint64_t readySamples = 0;

    /**
     * Top-down CPI stack (arXiv:2106.09991 style): every cycle is
     * attributed to exactly one bucket, so the five buckets always sum
     * to `cycles` exactly — the invariant the obs layer reports on.
     */
    uint64_t tdRetiring = 0;    ///< at least one instruction committed
    uint64_t tdFrontend = 0;    ///< window empty, fetch not supplying
    uint64_t tdBadSpec = 0;     ///< window empty behind a mispredict
    uint64_t tdBackendMem = 0;  ///< ROB head is a stalled load/store
    uint64_t tdBackendCore = 0; ///< ROB head stalled on execution

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instrs) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    mpki() const
    {
        return instrs ? 1000.0 * static_cast<double>(branchMispredicts) /
                            static_cast<double>(instrs)
                      : 0.0;
    }
};

class Core
{
  public:
    /**
     * @param sys   functional system (memory + devices) the oracle runs on
     * @param mem   shared timing memory hierarchy
     * @param entry reset pc
     */
    Core(const CoreConfig &cfg, HartId hart, iss::System &sys,
         uarch::MemHierarchy &mem, Addr entry);

    /**
     * Advance one cycle — or more: with event-driven skip-ahead
     * enabled, a provably idle cycle fast-forwards to the next cycle
     * any stage can make progress, charging every skipped cycle to the
     * same counters the per-cycle reference path would have bumped.
     * @param budget upper bound on cycles this call may consume (>= 1);
     * pass the caller's remaining cycle allowance so a skip never
     * overshoots a maxCycles limit the reference path would honor.
     * @return simulated cycles consumed (>= 1, <= budget). Callers
     * that tick a shared CLINT once per cycle must catch it up by the
     * extra cycles (see Soc::run).
     */
    Cycle tick(Cycle budget = ~0ULL);

    /** True once the oracle has halted and the pipeline has drained. */
    bool done() const;

    /** Oracle halt predicate (e.g. SimCtrl exit). */
    void setHaltFn(std::function<bool()> fn) { haltFn_ = std::move(fn); }

    /**
     * The commit probe interface (DiffTest, ArchDB, tests): the probes
     * of one cycle's commit group are delivered in a single call, in
     * program order, amortizing the hook indirection over the group.
     */
    void
    setCommitBatchHook(
        std::function<void(const difftest::CommitProbe *, unsigned)> fn)
    {
        commitBatchHook_ = std::move(fn);
    }

    /** Store buffer drain probe (store enters the cache hierarchy). */
    void
    setStoreHook(std::function<void(const difftest::StoreProbe &)> fn)
    {
        storeHook_ = std::move(fn);
    }

    /** Oracle-time store probe: fires when the functional oracle
     *  performs a store, i.e. at the earliest point the value exists.
     *  The Global Memory subscribes here so producer values are always
     *  recorded before any consumer load can observe them. */
    void
    setSpecStoreHook(std::function<void(const difftest::StoreProbe &)> fn)
    {
        specStoreHook_ = std::move(fn);
    }

    const PerfCounters &perf() const { return perf_; }
    PerfCounters &perf() { return perf_; }
    const CoreConfig &cfg() const { return cfg_; }
    HartId hartId() const { return hart_; }

    /** The oracle's architectural state (committed + in-flight). */
    iss::ArchState &oracleState() { return oracle_; }

    /** Sibling cores whose LR reservations must be broken by this
     *  core's stores (RVWMO reservation-granule semantics). Set by the
     *  Soc; may be null for single-core systems. Multi-core SoCs tick
     *  their harts in lockstep, so skip-ahead is disabled here. */
    void
    setPeers(const std::vector<Core *> *peers)
    {
        peers_ = peers;
        if (peers_)
            skipEnabled_ = false;
    }

    /** Idle cycles fast-forwarded by event-driven skip-ahead (a subset
     *  of perf().cycles; 0 with `--xs-no-skip`). */
    Cycle skippedCycles() const { return skippedCycles_; }
    /** Number of skip jumps taken (each covers >= 1 idle cycle). */
    uint64_t skipJumps() const { return skipJumps_; }
    iss::Mmu &oracleMmu() { return mmu_; }

    /** Fill the CSR diff probe from the oracle's committed view. */
    void fillCsrProbe(difftest::CsrProbe &probe) const;

    /**
     * Fault injection for the DiffTest demo (Section IV-C): the next
     * load to commit gets its value corrupted by @p xorMask.
     */
    void injectLoadFault(uint64_t xorMask) { faultMask_ = xorMask; }

    /**
     * Test-only fault hook: flip bits of the next committed register
     * write (the DUT-visible probe value), modeling a datapath bug the
     * checkers must catch at that very commit.
     */
    void injectCommitFault(uint64_t xorMask)
    {
        commitFaultMask_ = xorMask;
    }

    /**
     * Test-only fault hook: silently drop the next plain store (the
     * oracle's memory write is reverted), modeling a lost store-buffer
     * entry. Divergence surfaces at the next dependent load.
     */
    void injectDropStore() { dropStorePending_ = true; }

    /** Attach an event tracer (null detaches; owned by the caller). */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }

    /**
     * Make the next load raise a spurious page fault, modeling the
     * Figure 3 scenario: a stale/speculative TLB entry makes the DUT
     * fault where an architectural reference would not. The oracle
     * takes the trap (so the DUT's own stream stays consistent) and
     * DiffTest must reconcile via the page-fault diff-rule.
     */
    void injectSpuriousPageFault() { injectPageFault_ = true; }

    Cycle now() const { return now_; }

  private:
    struct Rec
    {
        uint64_t seq = 0;
        Addr pc = 0;
        isa::DecodedInst di;
        isa::FuType fu = isa::FuType::Alu;

        // Oracle outcomes.
        bool taken = false;
        Addr nextPc = 0;
        bool trapped = false;
        /** The commit probe; its isLoad/isStore and mem* fields are
         *  the instruction's memory access for the pipeline too. */
        difftest::CommitProbe probe;

        // Dependencies (producer sequence numbers; 0 = none).
        uint64_t src[3] = {0, 0, 0};
        uint64_t storeDataSrc = 0; ///< split STD dependency

        // Pipeline status.
        Cycle fetchReadyAt = 0;
        Cycle completedAt = 0;
        bool dispatched = false;
        bool issued = false;
        bool eliminated = false;   ///< move elimination: free at rename
        bool fusedWithPrev = false;
        bool serialize = false;    ///< stall fetch until this commits
        bool mispredicted = false;
        bool highPriority = false; ///< PUBS slice member
        uarch::CondPred condPred;      ///< TAGE coordinates (branches)
        uarch::IndirectPred indPred;   ///< ITTAGE coordinates (jalr)

        Addr instPaddr = 0;

        /** Reuse this ring slot for @p s at fetch. Only the fields
         *  oracleStep() and predictControl() do not always write are
         *  reset: pc, fu, nextPc and serialize are set on every path,
         *  condPred for every branch (the only reader) and
         *  fetchReadyAt by doFetch(). */
        void
        reset(uint64_t s)
        {
            seq = s;
            di = {};
            taken = trapped = false;
            probe = {};
            src[0] = src[1] = src[2] = 0;
            storeDataSrc = 0;
            completedAt = 0;
            dispatched = issued = eliminated = fusedWithPrev = false;
            mispredicted = highPriority = false;
            indPred = {};
            instPaddr = 0;
        }
    };
    // A new Rec field keeps its default only on a slot's first use;
    // after that it holds the previous occupant's value unless reset()
    // clears it or every fetch path writes it.
    static_assert(sizeof(Rec) == 288,
                  "new Rec field: decide whether Rec::reset() must clear it");

    struct PendingStore
    {
        Addr vaddr, paddr;
        uint64_t data;
        uint8_t size;
        uint64_t seq;
        Cycle drainableAt;
    };

    // ---- pipeline stages (called in reverse order each tick) ----
    unsigned doCommit(); ///< @return instructions committed this cycle
    bool drainStoreBuffer(); ///< @return true when a store drained
    unsigned doIssue();      ///< @return instructions issued this cycle
    void doDispatch();
    void doFetch();

    /** Charge this cycle to exactly one top-down bucket. */
    void classifyCycle(unsigned committed);

    /** Window slot of @p seq (seqs are dense; the window capacity is a
     *  power of two >= max in-flight instructions, so live seqs never
     *  collide). Indexes recRing_ and the bitset-scheduler arrays. */
    unsigned slotOf(uint64_t seq) const
    {
        return static_cast<unsigned>(seq) & winMask_;
    }
    /** Payload of a seq known to be live (in fetchBuffer_ or rob_). */
    Rec &ring(uint64_t seq) { return recRing_[slotOf(seq)]; }
    const Rec &ring(uint64_t seq) const { return recRing_[slotOf(seq)]; }

    // ---- bitset scoreboard (ModelOpts::bitsetSched) ----
    bool
    readyBit(uint64_t seq) const
    {
        unsigned s = slotOf(seq);
        return (readyBits_[s >> 6] >> (s & 63)) & 1;
    }
    void
    setReadyBit(uint64_t seq)
    {
        unsigned s = slotOf(seq);
        readyBits_[s >> 6] |= 1ULL << (s & 63);
    }
    void
    clearReadyBit(uint64_t seq)
    {
        unsigned s = slotOf(seq);
        readyBits_[s >> 6] &= ~(1ULL << (s & 63));
    }
    /** Fast operand-available test: committed or woken-up producer.
     *  Only valid for seqs that can actually be producers (live seqs
     *  always are: renamed sources point at in-flight or committed
     *  instructions, never at unallocated ones). */
    bool
    srcDone(uint64_t producerSeq) const
    {
        return producerSeq == 0 || producerSeq <= lastCommittedSeq_ ||
               readyBit(producerSeq);
    }
    /** Record @p rec's completion cycle and schedule its wakeup. */
    void scheduleCompletion(Rec &rec, Cycle at);
    /** Fire all completion events with cycle <= now_ (sets bits). */
    void drainCompletions();
    /** Set @p seq's ready bit and wake RS entries waiting on it. */
    void markReady(uint64_t seq);
    /** Insert @p seq into FU @p ft's ready queue (ascending seq). */
    void insertReady(unsigned ft, uint64_t seq);

    // ---- event-driven skip-ahead (ModelOpts::skipAhead) ----
    /** Earliest future cycle at which any stage can make progress;
     *  0 when no timed event is pending. */
    Cycle nextEventAt() const;
    /** Replicate the just-executed idle tick's per-cycle counter
     *  increments over @p extra more cycles (closed form). */
    void applyIdleDelta(Cycle extra);

    /** Functionally execute the next oracle instruction into @p rec.
     *  @return false when the oracle cannot make progress. */
    bool oracleStep(Rec &rec);

    /** Host address of the instruction bytes at @p pc when the oracle
     *  may read them in place (bare fetch translation, all four bytes
     *  in one DRAM page), else nullptr: the caller uses Mmu::fetch. */
    const uint8_t *fetchHost(Addr pc);

    /** Consult the frontend predictors for @p rec at fetch. */
    void predictControl(Rec &rec, unsigned &bubble);

    /** Train predictors at commit, in program order. */
    void trainPredictors(const Rec &rec);

    Rec *recBySeq(uint64_t seq);
    bool srcReady(uint64_t producerSeq) const;
    bool allSrcsReady(const Rec &rec) const;
    void markPubsSlice(Rec &branch);

    CoreConfig cfg_;
    HartId hart_;
    iss::System &sys_;
    uarch::MemHierarchy &mem_;

    // Oracle.
    iss::ArchState oracle_;
    iss::Mmu mmu_;
    /// fetchHost()'s cache: the DRAM host page of fetchPage_, valid
    /// while dram.epoch() == fetchEpoch_ (a clear() frees it).
    Addr fetchPage_ = ~0ULL;
    const uint8_t *fetchHostPage_ = nullptr;
    uint64_t fetchEpoch_ = 0;
    std::function<bool()> haltFn_;
    bool oracleHalted_ = false;

    /**
     * Fixed-capacity FIFO of sequence numbers. The ROB and fetch
     * buffer have hard capacity bounds from the config, so a
     * power-of-two ring with head/count indices replaces std::deque
     * on the per-instruction push/pop path with fully inlined
     * arithmetic. init() must be called with the capacity bound
     * before use; push_back beyond it is the caller's bug (the
     * dispatch/fetch stages enforce the bound first).
     */
    struct SeqRing {
        std::vector<uint64_t> buf;
        uint32_t mask = 0, head = 0, count = 0;
        void
        init(unsigned cap)
        {
            unsigned c = 1;
            while (c < cap)
                c <<= 1;
            buf.assign(c, 0);
            mask = c - 1;
            head = 0;
            count = 0;
        }
        bool empty() const { return count == 0; }
        size_t size() const { return count; }
        uint64_t front() const { return buf[head]; }
        uint64_t back() const { return buf[(head + count - 1) & mask]; }
        uint64_t
        operator[](size_t i) const
        {
            return buf[(head + static_cast<uint32_t>(i)) & mask];
        }
        void
        push_back(uint64_t v)
        {
            buf[(head + count) & mask] = v;
            ++count;
        }
        void
        pop_front()
        {
            head = (head + 1) & mask;
            --count;
        }
    };

    // Frontend.
    uarch::MicroBtb ubtb_;
    uarch::Btb btb_;
    uarch::Tage tage_;
    uarch::Ittage ittage_;
    uarch::Ras ras_;
    SeqRing fetchBuffer_; ///< fetched, not yet dispatched
    Cycle fetchResumeAt_ = 0;
    uint64_t mispredictWaitSeq_ = 0; ///< fetch stalled on this branch
    uint64_t serializeWaitSeq_ = 0;  ///< fetch stalled until commit

    // Window. Rec payloads live in recRing_, a seq-slot-indexed ring
    // (fetch writes each ~300-byte record exactly once, in place);
    // rob_ and fetchBuffer_ carry only sequence numbers, so the
    // fetch -> dispatch -> commit flow never copies a Rec.
    ZeroedArray<Rec> recRing_; ///< [slotOf(seq)] payloads of live seqs
    SeqRing rob_;
    uint64_t nextSeq_ = 1;
    uint64_t lastCommittedSeq_ = 0;
    std::vector<uint64_t> renameMap_; ///< 64 arch regs -> producer seq
    unsigned lqUsed_ = 0, sqUsed_ = 0;
    unsigned intPrfUsed_ = 0, fpPrfUsed_ = 0;

    // Reservation stations: per FuType list of seq numbers.
    static constexpr unsigned N_FU =
        static_cast<unsigned>(isa::FuType::None) + 1;
    std::vector<uint64_t> rs_[N_FU];
    std::vector<Cycle> fuBusyUntil_[N_FU]; ///< unpipelined units

    // Store path.
    std::deque<PendingStore> storeBuffer_;
    StoreRing inflightStores_; ///< forwarding sources, program order

    // ---- fast-path scheduling state ----
    // Bitset scoreboard: one ready bit per window slot. A seq's bit is
    // set once its result is available (completedAt <= now_) and stays
    // set until the slot is reallocated to a new seq at fetch. The
    // scan path recomputes the same predicate from Rec fields instead.
    unsigned winMask_ = 0; ///< winCap - 1, winCap = pow2 >= max inflight
    ZeroedArray<uint64_t> readyBits_;
    /// Pending completion events (cycle, seq), min-heap on cycle.
    std::vector<std::pair<Cycle, uint64_t>> compHeap_;

    /// Decode memo: decode(raw) is a pure function of the encoding,
    /// so the oracle's fetch path caches it in a direct-mapped table
    /// keyed by the raw bits (host-side only; no timing impact).
    struct DecodeEnt {
        isa::DecodedInst di{};
        bool valid = false;
    };
    static constexpr size_t kDecodeCacheSize = 8192; ///< pow2
    ZeroedArray<DecodeEnt> decodeCache_;
    /// Events due exactly one cycle out (the single-cycle-op common
    /// case): they always fire at the very next drain, so a plain
    /// FIFO avoids the heap's push/pop entirely.
    std::vector<uint64_t> nextCycleQ_;

    // Wakeup-driven issue: instead of scanning every RS entry every
    // cycle, each dispatched entry counts its unready sources and
    // registers itself on each producer's waiter list; when a
    // producer's ready bit fires, waiters decrement and drop into the
    // per-FU ready queue at zero. Sound because readiness is monotone
    // (bits persist until slot reuse, which commit-gates) and because
    // the oracle-driven frontend has no wrong-path flush: RS entries
    // leave only via issue, so queue membership never needs revoking.
    // The waiter lists are linked through two flat arrays: consumer
    // slot s waits on its k-th source through node 3s+k, so a list
    // never allocates. Links hold node + 1; 0 ends a list.
    ZeroedArray<uint8_t> pendingSrcs_; ///< [slot] unready srcs
    ZeroedArray<uint8_t> slotFu_;      ///< [slot] FuType
    ZeroedArray<uint64_t> slotSeq_;    ///< [slot] seq
    ZeroedArray<uint32_t> waitHead_;   ///< [producer slot] first node
    ZeroedArray<uint32_t> waitNext_;   ///< [node] next node
    std::vector<uint64_t> readyQ_[N_FU]; ///< ready, ascending seq
    unsigned rsCount_[N_FU] = {};        ///< RS occupancy (fast mode)

    // Event-driven skip-ahead bookkeeping.
    bool skipEnabled_ = true; ///< cfg.model.skipAhead && single-core
    bool lastTickIdle_ = false; ///< arms the snapshot (host-only state)
    Cycle skippedCycles_ = 0;
    uint64_t skipJumps_ = 0;
    PerfCounters idleSnap_; ///< counters before the last idle tick

    // Batched commit delivery.
    std::function<void(const difftest::CommitProbe *, unsigned)>
        commitBatchHook_;
    std::vector<difftest::CommitProbe> commitBatch_;

    // Per-FU scratch for doIssue ready-candidate collection (avoids
    // per-cycle allocation in the hot loop).
    std::vector<uint64_t> readyScratch_;

    // Hooks and misc.
    std::function<void(const difftest::StoreProbe &)> storeHook_;
    std::function<void(const difftest::StoreProbe &)> specStoreHook_;
    const std::vector<Core *> *peers_ = nullptr;
    uint64_t faultMask_ = 0;
    bool injectPageFault_ = false;
    uint64_t commitFaultMask_ = 0;
    bool dropStorePending_ = false;
    obs::TraceBuffer *trace_ = nullptr;

    Cycle now_ = 0;
    PerfCounters perf_;
};

} // namespace minjie::xs

#endif // MINJIE_XIANGSHAN_CORE_H
