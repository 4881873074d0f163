#include "xiangshan/core.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/log.h"
#include "isa/decode.h"

namespace minjie::xs {

using namespace minjie::isa;
using namespace minjie::iss;

namespace {

/** Does this instruction architecturally write an integer rd? */
bool
writesIntRd(const DecodedInst &di)
{
    Op op = di.op;
    if (di.rd == 0)
        return false;
    if (isFp(op))
        return !writesFpRd(op) && op != Op::Fsw && op != Op::Fsd;
    if (isCondBranch(op) || (isStore(op) && !isSc(op)))
        return false;
    switch (op) {
      case Op::Fence: case Op::FenceI: case Op::Ecall: case Op::Ebreak:
      case Op::Mret: case Op::Sret: case Op::Wfi: case Op::SfenceVma:
      case Op::Illegal:
        return false;
      default:
        return true;
    }
}

/** Rename-map slot for a source register. */
unsigned
srcSlot(unsigned reg, bool fp)
{
    return (fp ? 32 : 0) + reg;
}

/** Is this a register-to-register move the rename stage can eliminate? */
bool
isEliminableMove(const DecodedInst &di)
{
    if (di.rd == 0)
        return false;
    if (di.op == Op::Addi && di.imm == 0 && di.rs1 != 0)
        return true;
    if (di.op == Op::Add && (di.rs1 == 0 || di.rs2 == 0))
        return true;
    return false;
}

} // namespace

Core::Core(const CoreConfig &cfg, HartId hart, iss::System &sys,
           uarch::MemHierarchy &mem, Addr entry)
    : cfg_(cfg), hart_(hart), sys_(sys), mem_(mem), mmu_(oracle_, sys.bus),
      ubtb_(cfg.ubtbEntries), btb_(cfg.btbEntries), tage_(cfg.tageEntries),
      ittage_(512), ras_(cfg.rasDepth),
      inflightStores_(cfg.sqSize + cfg.storeBufferSize)
{
    oracle_.reset(entry, hart);
    oracle_.csr.timeSrc = nullptr;
    mmu_.bindDram(&sys.dram);
    renameMap_.assign(64, 0);
    for (unsigned i = 0; i < N_FU; ++i)
        fuBusyUntil_[i].assign(cfg_.fu[i].pipelined ? 0 : cfg_.fu[i].count,
                               0);

    // Scoreboard window: live seqs span at most robSize +
    // fetchBufferSize consecutive values (every allocated seq sits in
    // the fetch buffer or the ROB until commit), so a power-of-two
    // capacity strictly above that span guarantees no two live seqs
    // share a slot.
    unsigned span = cfg_.robSize + cfg_.fetchBufferSize + 1;
    unsigned cap = 1;
    while (cap < span)
        cap <<= 1;
    winMask_ = cap - 1;
    recRing_ = ZeroedArray<Rec>(cap);
    rob_.init(cfg_.robSize + 1);
    fetchBuffer_.init(cfg_.fetchBufferSize + 1);
    decodeCache_ = ZeroedArray<DecodeEnt>(kDecodeCacheSize);
    readyBits_ = ZeroedArray<uint64_t>((cap + 63) / 64);
    pendingSrcs_ = ZeroedArray<uint8_t>(cap);
    slotFu_ = ZeroedArray<uint8_t>(cap);
    slotSeq_ = ZeroedArray<uint64_t>(cap);
    waitHead_ = ZeroedArray<uint32_t>(cap);
    waitNext_ = ZeroedArray<uint32_t>(3 * static_cast<size_t>(cap));
    skipEnabled_ = cfg_.model.skipAhead;
}

void
Core::scheduleCompletion(Rec &rec, Cycle at)
{
    rec.completedAt = at;
    if (!cfg_.model.bitsetSched)
        return;
    if (at <= now_) {
        // Already visible under the reference predicate
        // (completedAt <= now_): wake consumers immediately.
        markReady(rec.seq);
    } else if (at == now_ + 1) {
        nextCycleQ_.push_back(rec.seq);
    } else {
        compHeap_.emplace_back(at, rec.seq);
        std::push_heap(compHeap_.begin(), compHeap_.end(),
                       std::greater<>());
    }
}

void
Core::drainCompletions()
{
    // Fires at tick start, before any stage evaluates readiness, so a
    // set bit is exactly equivalent to the reference predicate
    // `completedAt != 0 && completedAt <= now_` for live seqs. Commit
    // requires completedAt <= now_, hence every committed seq's event
    // has already fired — pending heap entries only name live seqs.
    // Next-cycle lane first: every entry was queued one cycle before
    // an earlier tick's end, so its due time is <= now_ by the time
    // any drain runs. Wake order between the lane and the heap is
    // immaterial — insertReady keeps readyQ_ seq-sorted, and the
    // ready bits / pending-source counters are order-independent.
    if (!nextCycleQ_.empty()) {
        for (uint64_t s : nextCycleQ_)
            markReady(s);
        nextCycleQ_.clear();
    }
    while (!compHeap_.empty() && compHeap_.front().first <= now_) {
        markReady(compHeap_.front().second);
        std::pop_heap(compHeap_.begin(), compHeap_.end(),
                      std::greater<>());
        compHeap_.pop_back();
    }
}

void
Core::markReady(uint64_t seq)
{
    setReadyBit(seq);
    // Wake RS entries that registered on this producer at dispatch.
    // A waiting consumer can never have issued (issue requires all
    // sources done), and the producer's slot cannot have been reused
    // while waiters exist (reuse requires the producer to commit,
    // which requires this very event to have fired), so every entry
    // in the list is live.
    // The wake order does not matter: insertReady keeps readyQ_
    // seq-sorted.
    uint32_t &head = waitHead_[slotOf(seq)];
    for (uint32_t n = head; n; n = waitNext_[n - 1]) {
        uint32_t c = (n - 1) / 3;
        if (--pendingSrcs_[c] == 0)
            insertReady(slotFu_[c], slotSeq_[c]);
    }
    head = 0;
}

void
Core::insertReady(unsigned ft, uint64_t seq)
{
    auto &q = readyQ_[ft];
    if (q.empty() || seq > q.back()) {
        q.push_back(seq); // common case: woken entry is the youngest
        return;
    }
    q.insert(std::upper_bound(q.begin(), q.end(), seq), seq);
}

bool
Core::done() const
{
    return oracleHalted_ && rob_.empty() && fetchBuffer_.empty() &&
           storeBuffer_.empty();
}

Core::Rec *
Core::recBySeq(uint64_t seq)
{
    // Every live (allocated, uncommitted) seq sits in fetchBuffer_ or
    // rob_, and its payload lives at ring(seq); anything outside the
    // (lastCommittedSeq_, nextSeq_) window is dead or unallocated.
    if (seq == 0 || seq <= lastCommittedSeq_ || seq >= nextSeq_)
        return nullptr;
    return &recRing_[slotOf(seq)];
}

bool
Core::srcReady(uint64_t producerSeq) const
{
    if (producerSeq == 0 || producerSeq <= lastCommittedSeq_)
        return true;
    if (cfg_.model.bitsetSched)
        return readyBit(producerSeq);
    auto *self = const_cast<Core *>(this);
    const Rec *rec = self->recBySeq(producerSeq);
    if (!rec)
        return true;
    return rec->completedAt != 0 && rec->completedAt <= now_;
}

bool
Core::allSrcsReady(const Rec &rec) const
{
    return srcReady(rec.src[0]) && srcReady(rec.src[1]) &&
           srcReady(rec.src[2]);
}

void
Core::fillCsrProbe(difftest::CsrProbe &p) const
{
    const auto &csr = oracle_.csr;
    p.hart = hart_;
    p.mstatus = csr.mstatus;
    p.mepc = csr.mepc;
    p.mcause = csr.mcause;
    p.mtval = csr.mtval;
    p.mtvec = csr.mtvec;
    p.mscratch = csr.mscratch;
    p.mie = csr.mie;
    p.mip = csr.mip;
    p.medeleg = csr.medeleg;
    p.mideleg = csr.mideleg;
    p.sepc = csr.sepc;
    p.scause = csr.scause;
    p.stval = csr.stval;
    p.stvec = csr.stvec;
    p.sscratch = csr.sscratch;
    p.satp = csr.satp;
    p.mcycle = csr.mcycle;
    p.minstret = csr.minstret;
    p.fflags = csr.fflags;
    p.frm = csr.frm;
    p.priv = static_cast<uint8_t>(oracle_.priv);
    p.misa = csr.misa;
    p.mvendorid = 0;
    p.marchid = 25;
    p.mimpid = 0;
    p.mhartid = csr.mhartid;
    p.mcounteren = csr.mcounteren;
    p.scounteren = csr.scounteren;
    p.pmpcfg0 = csr.pmpcfg0;
    p.pmpaddr0 = csr.pmpaddr0;
    p.timeVal = csr.timeSrc ? *csr.timeSrc : 0;
}

const uint8_t *
Core::fetchHost(Addr pc)
{
    constexpr Addr mask = mem::PhysMem::PAGE_MASK;
    if ((pc & 1) || (pc & mask) > mask - 3 ||
        mmu_.translationOn(iss::Access::Fetch))
        return nullptr;
    mem::PhysMem &dram = sys_.dram;
    Addr page = pc & ~mask;
    if (page != fetchPage_ || fetchEpoch_ != dram.epoch() ||
        fetchCopies_ != dram.copies()) {
        // A write to a private page lands in it, and a write to a
        // mapped one copies it (moving copies()): either way patched
        // code is seen without a flush.
        fetchHostPage_ = dram.readPage(page);
        fetchPage_ = page;
        fetchEpoch_ = dram.epoch();
        fetchCopies_ = dram.copies();
    }
    return fetchHostPage_ ? fetchHostPage_ + (pc & mask) : nullptr;
}

bool
Core::oracleStep(Rec &rec)
{
    rec.pc = oracle_.pc;
    rec.probe.hart = hart_;
    rec.probe.pc = rec.pc;

    // Asynchronous interrupts: mirror the CLINT lines into mip, and
    // take a deliverable interrupt at this instruction boundary. The
    // REF cannot predict this timing — DiffTest's forced-interrupt
    // diff-rule replays it (the Dromajo approach, Section V-C).
    {
        auto &csr = oracle_.csr;
        uint64_t mip = csr.mip & ~(MIP_MTIP | MIP_MSIP);
        if (sys_.clint.timerIrq(hart_))
            mip |= MIP_MTIP;
        if (sys_.clint.softwareIrq(hart_))
            mip |= MIP_MSIP;
        csr.mip = mip;
        uint64_t irq = pendingInterrupt(oracle_);
        if (irq != ~0ULL) {
            takeInterrupt(oracle_, static_cast<Irq>(irq));
            rec.trapped = true;
            rec.serialize = true;
            rec.fu = FuType::Jmp;
            rec.nextPc = oracle_.pc;
            rec.probe.interrupt = true;
            rec.probe.trapCause = irq;
            return true;
        }
    }

    uint32_t raw;
    Trap ft = Trap::none();
    if (const uint8_t *host = fetchHost(rec.pc)) {
        // Mmu::fetch's in-page path, without its translation and
        // page lookup.
        std::memcpy(&raw, host, 4);
        if ((raw & 0x3) != 0x3)
            raw &= 0xffff;
        rec.instPaddr = rec.pc;
    } else {
        ft = mmu_.fetch(rec.pc, raw);
        rec.instPaddr = mmu_.lastPaddr();
    }

    if (ft.pending()) {
        takeTrap(oracle_, ft, rec.pc);
        ++oracle_.instret;
        rec.trapped = true;
        rec.serialize = true;
        rec.fu = FuType::Jmp;
        rec.nextPc = oracle_.pc;
        rec.probe.trap = true;
        rec.probe.trapCause = static_cast<uint64_t>(ft.cause);
        return true;
    }

    // Memoized decode: hot loops re-fetch the same few encodings, and
    // decode is pure in the raw bits, so a direct-mapped lookup
    // replaces the full decoder on hits.
    DecodeEnt &de =
        decodeCache_[(raw ^ (raw >> 13)) & (kDecodeCacheSize - 1)];
    if (!de.valid || de.di.raw != raw) {
        de.di = decode(raw);
        de.valid = true;
    }
    rec.di = de.di;
    rec.probe.inst = raw;
    rec.probe.rd = rec.di.rd;

    if (injectPageFault_ && isLoad(rec.di.op)) {
        // Speculative-TLB fault injection (Figure 3): fault instead of
        // executing; the trap value is the load's virtual address.
        injectPageFault_ = false;
        Addr vaddr = oracle_.x[rec.di.rs1] +
                     static_cast<uint64_t>(rec.di.imm);
        Trap t = Trap::make(Exc::LoadPageFault, vaddr);
        takeTrap(oracle_, t, rec.pc);
        ++oracle_.instret;
        ++oracle_.csr.minstret;
        ++oracle_.csr.mcycle;
        rec.trapped = true;
        rec.serialize = true;
        rec.fu = FuType::Jmp;
        rec.nextPc = oracle_.pc;
        rec.probe.trap = true;
        rec.probe.trapCause = static_cast<uint64_t>(Exc::LoadPageFault);
        rec.probe.memVaddr = vaddr;
        return true;
    }

    // Test-only drop-store hook: snapshot the memory the next plain
    // store will overwrite so it can be reverted after execution. The
    // oracle then behaves as if the store was lost in the store path;
    // the first dependent load commits stale data and DiffTest flags
    // the rd mismatch against the REF.
    bool dropThisStore = false;
    Addr dropVaddr = 0;
    uint64_t dropOld = 0;
    unsigned dropSize = 0;
    if (dropStorePending_ && isStore(rec.di.op) && !isAmo(rec.di.op) &&
        !isSc(rec.di.op)) {
        switch (rec.di.op) {
          case Op::Sb: dropSize = 1; break;
          case Op::Sh: dropSize = 2; break;
          case Op::Sw: case Op::Fsw: dropSize = 4; break;
          default: dropSize = 8; break; // Sd / Fsd
        }
        dropVaddr = oracle_.x[rec.di.rs1] +
                    static_cast<uint64_t>(rec.di.imm);
        if (!mmu_.load(dropVaddr, dropSize, dropOld).pending())
            dropThisStore = true;
    }

    ExecInfo info;
    Trap et = execInst(oracle_, mmu_, rec.di, fp::FpBackend::Host, &info);
    if (et.pending()) {
        takeTrap(oracle_, et, rec.pc);
        rec.trapped = true;
        rec.probe.trap = true;
        rec.probe.trapCause = static_cast<uint64_t>(et.cause);
    }
    ++oracle_.instret;
    ++oracle_.csr.minstret;
    ++oracle_.csr.mcycle;

    rec.nextPc = oracle_.pc;
    Op op = rec.di.op;
    rec.fu = fuType(op);
    if (rec.trapped)
        rec.fu = FuType::Jmp;
    rec.taken = isCondBranch(op) && rec.nextPc != rec.pc + rec.di.size;
    rec.serialize = rec.trapped || isSystem(op) || isFence(op) ||
                    isCsr(op) || isAmo(op);

    if (!rec.trapped) {
        if (writesIntRd(rec.di)) {
            rec.probe.rdWritten = true;
            rec.probe.rdValue = oracle_.x[rec.di.rd];
        } else if (writesFpRd(op)) {
            rec.probe.fpWritten = true;
            rec.probe.rdValue = oracle_.f[rec.di.rd];
        }
        if (info.memValid) {
            rec.probe.isLoad = !info.isStore;
            rec.probe.isStore = info.isStore;
            rec.probe.skip = info.isMmio;
            rec.probe.memVaddr = info.memVaddr;
            rec.probe.memPaddr = info.memPaddr;
            rec.probe.memData = info.memData;
            rec.probe.memSize = info.memSize;
        }
        rec.probe.scFailed = info.scFailed;
        if (info.memValid && info.isStore && !info.isMmio) {
            if (specStoreHook_)
                specStoreHook_({hart_, info.memPaddr, info.memData,
                                info.memSize});
            // Break sibling harts' LR reservations on the same granule.
            if (peers_) {
                Addr granule = info.memPaddr & ~static_cast<Addr>(63);
                for (Core *peer : *peers_) {
                    if (peer == this)
                        continue;
                    auto &st = peer->oracle_;
                    if (st.resValid && st.resAddr == granule)
                        st.resValid = false;
                }
            }
        }
    }

    if (dropThisStore && !rec.trapped && info.memValid && info.isStore &&
        !info.isMmio) {
        mmu_.store(dropVaddr, dropSize, dropOld);
        dropStorePending_ = false;
        if (trace_)
            trace_->record(obs::Ev::FaultInject, now_, rec.pc,
                           info.memPaddr, /*drop-store=*/1,
                           static_cast<uint8_t>(hart_));
    }

    if (haltFn_ && haltFn_())
        oracleHalted_ = true;
    return true;
}

void
Core::predictControl(Rec &rec, unsigned &bubble)
{
    Op op = rec.di.op;
    if (isCondBranch(op)) {
        rec.condPred = tage_.predict(rec.pc);
        // Fetch-time history update with the resolved direction (the
        // oracle-driven fetch never walks a wrong path).
        tage_.pushHistory(rec.taken);
        const auto &p = rec.condPred;
        rec.mispredicted = p.taken != rec.taken;
        rec.highPriority = false;
        // PUBS confidence estimation comes straight from the TAGE
        // provider counter plus SC agreement.
        rec.probe.interrupt = false;
        if (!p.confident)
            rec.highPriority = true; // provisional; refined at dispatch
        if (!rec.mispredicted && rec.taken) {
            Addr t;
            bool bias;
            if (!ubtb_.predict(rec.pc, t, bias))
                bubble += cfg_.ubtbMissBubble;
            Addr bt;
            if (!btb_.predict(rec.pc, bt) || bt != rec.nextPc)
                bubble += cfg_.ubtbMissBubble;
        }
    } else if (op == Op::Jal) {
        Addr t;
        bool bias;
        if (!ubtb_.predict(rec.pc, t, bias) || t != rec.nextPc)
            bubble += cfg_.ubtbMissBubble;
        if (rec.di.rd == 1)
            ras_.push(rec.pc + rec.di.size);
    } else if (op == Op::Jalr) {
        bool isRet = rec.di.rd == 0 && rec.di.rs1 == 1 && rec.di.imm == 0;
        Addr predicted = 0;
        if (isRet) {
            predicted = ras_.pop();
        } else if (cfg_.hasIttage) {
            rec.indPred = ittage_.predict(rec.pc);
            ittage_.pushHistory(rec.nextPc);
            predicted = rec.indPred.target;
        } else {
            Addr t;
            if (btb_.predict(rec.pc, t))
                predicted = t;
        }
        if (rec.di.rd == 1)
            ras_.push(rec.pc + rec.di.size);
        rec.mispredicted = predicted != rec.nextPc;
    }
}

void
Core::trainPredictors(const Rec &rec)
{
    Op op = rec.di.op;
    if (isCondBranch(op)) {
        ++perf_.branches;
        if (rec.mispredicted)
            ++perf_.branchMispredicts;
        tage_.update(rec.condPred, rec.taken);
        if (rec.taken) {
            ubtb_.update(rec.pc, rec.nextPc, true);
            btb_.update(rec.pc, rec.nextPc);
        }
    } else if (op == Op::Jal) {
        ubtb_.update(rec.pc, rec.nextPc, true);
        btb_.update(rec.pc, rec.nextPc);
    } else if (op == Op::Jalr) {
        ++perf_.indirects;
        if (rec.mispredicted)
            ++perf_.indirectMispredicts;
        if (cfg_.hasIttage)
            ittage_.update(rec.indPred, rec.nextPc);
        btb_.update(rec.pc, rec.nextPc);
    }
}

void
Core::markPubsSlice(Rec &branch)
{
    // Prioritize the unconfident branch and its producer slice
    // (ConfTable + BrSliceTable + DefTable of the PUBS paper, walked
    // over the in-flight window).
    branch.highPriority = true;
    ++perf_.highPriorityInsts;

    std::vector<uint64_t> frontier = {branch.src[0], branch.src[1]};
    for (unsigned depth = 0; depth < cfg_.pubsSliceDepth; ++depth) {
        std::vector<uint64_t> next;
        for (uint64_t seq : frontier) {
            Rec *r = recBySeq(seq);
            if (!r || r->issued || r->highPriority)
                continue;
            r->highPriority = true;
            ++perf_.highPriorityInsts;
            next.push_back(r->src[0]);
            next.push_back(r->src[1]);
            next.push_back(r->src[2]);
        }
        frontier = std::move(next);
        if (frontier.empty())
            break;
    }
}

void
Core::doFetch()
{
    if (oracleHalted_)
        return;

    // Resolve outstanding redirect stalls.
    if (mispredictWaitSeq_) {
        Rec *r = recBySeq(mispredictWaitSeq_);
        if (!r) {
            mispredictWaitSeq_ = 0; // resolved and committed already
        } else if (r->completedAt != 0) {
            fetchResumeAt_ =
                std::max(fetchResumeAt_,
                         r->completedAt + cfg_.mispredictPenalty);
            mispredictWaitSeq_ = 0;
        } else {
            ++perf_.fetchStallCycles;
            ++perf_.stallMispredict;
            return;
        }
    }
    if (serializeWaitSeq_) {
        if (serializeWaitSeq_ <= lastCommittedSeq_) {
            serializeWaitSeq_ = 0; // resume cycle set at commit
        } else {
            ++perf_.fetchStallCycles;
            ++perf_.stallSerialize;
            return;
        }
    }
    if (now_ < fetchResumeAt_) {
        ++perf_.fetchStallCycles;
        ++perf_.stallBubble;
        return;
    }
    if (fetchBuffer_.size() >= cfg_.fetchBufferSize)
        return;

    unsigned slots = static_cast<unsigned>(std::min<size_t>(
        cfg_.fetchWidth, cfg_.fetchBufferSize - fetchBuffer_.size()));
    unsigned bubble = 0;
    Addr lastLine = ~0ULL;
    Cycle lineReady = now_ + 1;

    for (unsigned i = 0; i < slots; ++i) {
        uint64_t seq = nextSeq_++;
        if (cfg_.model.bitsetSched)
            clearReadyBit(seq); // slot reuse: retire any stale bit
        Rec &rec = ring(seq);
        rec.reset(seq);

        if (!oracleStep(rec)) {
            --nextSeq_;
            break;
        }
        ++perf_.fetchedInstrs;
        if (trace_)
            trace_->record(obs::Ev::Fetch, now_, rec.pc, rec.seq, 0,
                           static_cast<uint8_t>(hart_));

        // Instruction-cache timing, once per touched line.
        Addr line = rec.pc & ~63ULL;
        if (line != lastLine) {
            unsigned lat = mem_.fetch(hart_, rec.pc,
                                      rec.instPaddr ? rec.instPaddr
                                                    : rec.pc,
                                      now_);
            lineReady = std::max(lineReady, now_ + lat);
            lastLine = line;
        }
        rec.fetchReadyAt = lineReady;

        predictControl(rec, bubble);

        bool stopMispredict = rec.mispredicted;
        bool stopSerialize = rec.serialize;
        bool stopTaken = isControl(rec.di.op) &&
                         rec.nextPc != rec.pc + rec.di.size;
        fetchBuffer_.push_back(seq);

        if (stopSerialize) {
            serializeWaitSeq_ = seq;
            break;
        }
        if (stopMispredict) {
            mispredictWaitSeq_ = seq;
            break;
        }
        if (oracleHalted_)
            break;
        if (stopTaken)
            break; // one taken transfer per fetch group
    }
    fetchResumeAt_ = std::max(fetchResumeAt_, now_ + 1 + bubble);
}

void
Core::doDispatch()
{
    unsigned width = 0;
    while (width < cfg_.decodeWidth && !fetchBuffer_.empty()) {
        Rec &rec = ring(fetchBuffer_.front());
        if (rec.fetchReadyAt > now_)
            break;
        if (rob_.size() >= cfg_.robSize) {
            ++perf_.robFullStalls;
            break;
        }
        if (rec.probe.isLoad && lqUsed_ >= cfg_.lqSize)
            break;
        if (rec.probe.isStore && sqUsed_ >= cfg_.sqSize)
            break;

        // oracleStep() sets rdWritten exactly when an untrapped
        // instruction writes an integer rd.
        bool intDest = rec.probe.rdWritten;
        bool fpDest = !rec.trapped && writesFpRd(rec.di.op);
        if (intDest && intPrfUsed_ + 32 >= cfg_.intPrf)
            break;
        if (fpDest && fpPrfUsed_ + 32 >= cfg_.fpPrf)
            break;

        // Macro-op fusion: the previous instruction (already in the
        // ROB) plus this one form a fused pair when this one is a
        // plain ALU op that consumes and overwrites the previous ALU
        // result (paper Section IV-A).
        bool fused = false;
        if (cfg_.fusion && !rec.trapped && !rob_.empty()) {
            Rec &prev = ring(rob_.back());
            if (prev.seq + 1 == rec.seq && prev.fu == FuType::Alu &&
                !prev.issued && !prev.eliminated &&
                !prev.fusedWithPrev && !prev.probe.isLoad &&
                rec.fu == FuType::Alu && !rec.probe.isLoad &&
                !rec.probe.isStore &&
                prev.probe.rdWritten && intDest &&
                prev.di.rd == rec.di.rd &&
                (rec.di.rs1 == prev.di.rd || rec.di.rs2 == prev.di.rd)) {
                fused = true;
            }
        }

        // Move elimination at rename (reference-counted physical regs
        // in the real design; modeled as a zero-latency zero-resource
        // rename-map copy here).
        bool eliminated = false;
        if (cfg_.moveElim && !rec.trapped && !fused &&
            isEliminableMove(rec.di)) {
            eliminated = true;
        }

        // Reservation-station capacity.
        unsigned ft = static_cast<unsigned>(rec.fu);
        unsigned rsOcc = cfg_.model.bitsetSched
                             ? rsCount_[ft]
                             : static_cast<unsigned>(rs_[ft].size());
        if (!eliminated && !fused && rsOcc >= cfg_.fu[ft].rsSize) {
            ++perf_.rsFullStalls;
            break;
        }

        // ---- rename: resolve sources ----
        if (!rec.trapped) {
            const DecodedInst &di = rec.di;
            Op op = di.op;
            if (di.rs1 != 0 || readsFpRs1(op))
                rec.src[0] =
                    renameMap_[srcSlot(di.rs1, readsFpRs1(op))];
            bool usesRs2 = isCondBranch(op) || isStore(op) || isAmo(op) ||
                           readsFpRs2(op) ||
                           (!isLoad(op) && !isCsr(op) && !isJump(op) &&
                            di.rs2 != 0 && !isFp(op));
            if (usesRs2 && (di.rs2 != 0 || readsFpRs2(op)))
                rec.src[1] =
                    renameMap_[srcSlot(di.rs2, readsFpRs2(op))];
            if (hasRs3(op))
                rec.src[2] = renameMap_[srcSlot(di.rs3, true)];

            // Split store-address/data: the STA uop (in the RS) only
            // waits for the address; the data dependency is tracked
            // separately and gates commit.
            if (rec.probe.isStore && cfg_.splitStaStd && !isAmo(op)) {
                rec.storeDataSrc = rec.src[1];
                rec.src[1] = 0;
            }
        }

        if (eliminated) {
            // rd inherits the source's producer.
            unsigned slot = srcSlot(rec.di.rs1 ? rec.di.rs1 : rec.di.rs2,
                                    false);
            renameMap_[srcSlot(rec.di.rd, false)] = renameMap_[slot];
            rec.eliminated = true;
            scheduleCompletion(rec, now_);
            rec.issued = true;
            ++perf_.movesEliminated;
        } else {
            if (intDest) {
                renameMap_[srcSlot(rec.di.rd, false)] = rec.seq;
                ++intPrfUsed_;
            } else if (fpDest) {
                renameMap_[srcSlot(rec.di.rd, true)] = rec.seq;
                ++fpPrfUsed_;
            }
        }

        if (rec.probe.isLoad)
            ++lqUsed_;
        if (rec.probe.isStore) {
            ++sqUsed_;
            inflightStores_.push(rec.probe.memPaddr & ~7ULL, rec.seq);
        }

        rec.fusedWithPrev = fused;
        rec.dispatched = true;

        uint64_t seq = rec.seq;
        rob_.push_back(seq);
        fetchBuffer_.pop_front();
        Rec &placed = rec; // payload stays put in the ring
        if (trace_)
            trace_->record(obs::Ev::Rename, now_, placed.pc,
                           static_cast<uint64_t>(rob_.size()), 0,
                           static_cast<uint8_t>(hart_));

        if (fused) {
            ++perf_.fusedPairs;
            // Completion is tied to the previous instruction's issue.
            Rec &prev = ring(rob_[rob_.size() - 2]);
            if (prev.completedAt != 0)
                scheduleCompletion(placed, prev.completedAt);
        } else if (!placed.eliminated) {
            if (cfg_.model.bitsetSched) {
                // Wakeup registration instead of a scannable RS list:
                // count unready sources and subscribe to each one's
                // completion; source-free entries drop straight into
                // the ready queue.
                unsigned slot = slotOf(seq);
                slotSeq_[slot] = seq;
                slotFu_[slot] = static_cast<uint8_t>(placed.fu);
                uint8_t pending = 0;
                for (unsigned k = 0; k < 3; ++k) {
                    uint64_t p = placed.src[k];
                    if (p != 0 && !srcDone(p)) {
                        ++pending;
                        uint32_t &head = waitHead_[slotOf(p)];
                        waitNext_[3 * slot + k] = head;
                        head = 3 * slot + k + 1;
                    }
                }
                pendingSrcs_[slot] = pending;
                // Seqs allocate monotonically, so a source-free entry
                // is the queue's new maximum: append keeps it sorted.
                if (pending == 0)
                    readyQ_[static_cast<unsigned>(placed.fu)].push_back(
                        seq);
                ++rsCount_[static_cast<unsigned>(placed.fu)];
            } else {
                rs_[static_cast<unsigned>(placed.fu)].push_back(seq);
            }
        }

        // PUBS: mark unconfident branch slices at dispatch.
        if (cfg_.policy == IssuePolicy::Pubs && placed.highPriority &&
            isCondBranch(placed.di.op)) {
            markPubsSlice(placed);
        } else if (cfg_.policy != IssuePolicy::Pubs) {
            placed.highPriority = false;
        }

        ++width;
    }
}

unsigned
Core::doIssue()
{
    unsigned nIssued = 0;
    for (unsigned ft = 0; ft < N_FU; ++ft) {
        auto &rs = rs_[ft];
        const FuCfg &fu = cfg_.fu[ft];

        // Outcome of one issue attempt: Issued = the entry leaves the
        // RS; Defer = retry a later cycle (entry stays); Stop = no
        // more issue bandwidth on this FU this cycle (entry stays and
        // so does everything younger).
        enum class Att { Issued, Defer, Stop };
        auto tryIssue = [&](uint64_t seq) -> Att {
            Rec *r = recBySeq(seq);
            if (!r)
                return Att::Defer;

            // Unpipelined units need a free unit.
            int unit = -1;
            if (!fu.pipelined) {
                for (unsigned u = 0; u < fuBusyUntil_[ft].size(); ++u) {
                    if (fuBusyUntil_[ft][u] <= now_) {
                        unit = static_cast<int>(u);
                        break;
                    }
                }
                if (unit < 0)
                    return Att::Stop; // all units busy
            }

            unsigned lat = fu.latency;
            if (r->fu == FuType::Ldu && r->probe.isLoad) {
                if (r->probe.skip) {
                    lat = 20; // MMIO round trip
                } else {
                    // Store-to-load forwarding from an older in-flight
                    // store to the same 8-byte slot.
                    // Youngest in-flight store older than the load.
                    uint64_t best = inflightStores_.youngestBefore(
                        r->probe.memPaddr & ~7ULL, seq);
                    Rec *st = nullptr;
                    bool fromBuffer = false;
                    if (best) {
                        st = recBySeq(best);
                        // Committed but not yet drained: the store
                        // buffer forwards directly.
                        fromBuffer = !st && best <= lastCommittedSeq_;
                    }
                    if (st && st->probe.isStore) {
                        if (!srcReady(st->storeDataSrc) ||
                            st->completedAt == 0 ||
                            st->completedAt > now_) {
                            ++perf_.loadDefers;
                            return Att::Defer; // data not ready: retry
                        }
                        lat = cfg_.storeForwardLatency;
                        ++perf_.storeForwards;
                    } else if (fromBuffer) {
                        lat = cfg_.storeForwardLatency;
                        ++perf_.storeForwards;
                    } else {
                        lat = 2 + mem_.load(hart_, r->probe.memVaddr,
                                            r->probe.memPaddr, now_);
                    }
                }
                ++perf_.loads;
            } else if (r->fu == FuType::Sta && isAmo(r->di.op)) {
                lat = 2 + mem_.store(hart_, r->probe.memVaddr,
                                     r->probe.memPaddr, now_);
            }

            r->issued = true;
            scheduleCompletion(*r, now_ + std::max(1u, lat));
            if (!fu.pipelined)
                fuBusyUntil_[ft][static_cast<unsigned>(unit)] =
                    r->completedAt;
            if (trace_)
                trace_->record(obs::Ev::Issue, now_, r->pc, seq,
                               static_cast<uint32_t>(r->completedAt -
                                                     now_),
                               static_cast<uint8_t>(hart_));

            // A fused follower completes with its leader.
            Rec *next = recBySeq(seq + 1);
            if (next && next->fusedWithPrev)
                scheduleCompletion(*next, r->completedAt);
            return Att::Issued;
        };

        // Fast path (AGE): the wakeup network maintained readyQ_
        // incrementally (an entry lands there the moment its last
        // source's bit fires) in seq order, which already IS the AGE
        // selection order — drain it in place, compacting survivors,
        // with no scan, no copy and no per-issue erase. Equivalence
        // with the reference scan: readiness is monotone, pendingSrcs_
        // counts exactly the sources with unset bits, and RS entries
        // were dispatched with fetchReadyAt <= now_ (doDispatch gates
        // on it and now_ is monotonic).
        if (cfg_.model.bitsetSched &&
            cfg_.policy != IssuePolicy::Pubs) {
            auto &q = readyQ_[ft];
            if (static_cast<FuType>(ft) == FuType::Alu) {
                unsigned bucket = std::min<unsigned>(
                    static_cast<unsigned>(q.size()),
                    PerfCounters::READY_BUCKETS - 1);
                ++perf_.readyHist[bucket];
                ++perf_.readySamples;
            }
            if (q.empty())
                continue;
            unsigned issued = 0;
            size_t w = 0, i = 0;
            for (; i < q.size(); ++i) {
                if (issued >= fu.rsIssueWidth)
                    break;
                Att a = tryIssue(q[i]);
                if (a == Att::Issued) {
                    ++issued;
                    --rsCount_[ft];
                } else if (a == Att::Defer) {
                    q[w++] = q[i];
                } else {
                    break; // Stop: keep this entry and the tail
                }
            }
            for (; i < q.size(); ++i)
                q[w++] = q[i];
            q.resize(w);
            nIssued += issued;
            continue;
        }

        // Collect ready candidates.
        readyScratch_.clear();
        auto &ready = readyScratch_;
        if (cfg_.model.bitsetSched) {
            ready.assign(readyQ_[ft].begin(), readyQ_[ft].end());
        } else {
            for (uint64_t seq : rs) {
                Rec *r = recBySeq(seq);
                if (r && r->fetchReadyAt <= now_ && allSrcsReady(*r))
                    ready.push_back(seq);
            }
        }

        // Figure 15 statistics: sampled on the dual-issue integer
        // queue (the one PUBS competes for on sjeng).
        if (static_cast<FuType>(ft) == FuType::Alu) {
            unsigned bucket = std::min<unsigned>(
                static_cast<unsigned>(ready.size()),
                PerfCounters::READY_BUCKETS - 1);
            ++perf_.readyHist[bucket];
            ++perf_.readySamples;
        }
        if (ready.empty())
            continue;

        // Selection order: AGE = oldest first; PUBS = high-priority
        // slices first, age-ordered within a class. The fast path's
        // queue copy is already seq-ascending, so PUBS needs only a
        // stable partition by priority class.
        if (cfg_.model.bitsetSched) {
            std::stable_sort(ready.begin(), ready.end(),
                             [&](uint64_t a, uint64_t b) {
                                 Rec *ra = recBySeq(a);
                                 Rec *rb = recBySeq(b);
                                 bool ha = ra && ra->highPriority;
                                 bool hb = rb && rb->highPriority;
                                 return ha && !hb;
                             });
        } else {
            std::sort(ready.begin(), ready.end(),
                      [&](uint64_t a, uint64_t b) {
                          if (cfg_.policy == IssuePolicy::Pubs) {
                              Rec *ra = recBySeq(a), *rb = recBySeq(b);
                              bool ha = ra && ra->highPriority;
                              bool hb = rb && rb->highPriority;
                              if (ha != hb)
                                  return ha;
                          }
                          return a < b;
                      });
        }

        unsigned issued = 0;
        for (uint64_t seq : ready) {
            if (issued >= fu.rsIssueWidth)
                break;
            Att a = tryIssue(seq);
            if (a == Att::Stop)
                break;
            if (a == Att::Defer)
                continue;
            // Remove from the RS.
            if (cfg_.model.bitsetSched) {
                auto &q = readyQ_[ft];
                q.erase(std::lower_bound(q.begin(), q.end(), seq));
                --rsCount_[ft];
            } else {
                rs.erase(std::find(rs.begin(), rs.end(), seq));
            }
            ++issued;
        }
        nIssued += issued;
    }
    return nIssued;
}

bool
Core::drainStoreBuffer()
{
    if (storeBuffer_.empty() || storeBuffer_.front().drainableAt > now_)
        return false;
    PendingStore ps = storeBuffer_.front();
    storeBuffer_.pop_front();
    mem_.store(hart_, ps.vaddr, ps.paddr, now_);
    inflightStores_.retire(ps.seq);
    if (storeHook_)
        storeHook_({hart_, ps.paddr, ps.data, ps.size});
    if (trace_)
        trace_->record(obs::Ev::StoreDrain, now_, ps.vaddr, ps.data,
                       ps.size, static_cast<uint8_t>(hart_));
    return true;
}

unsigned
Core::doCommit()
{
    unsigned committed = 0;
    while (committed < cfg_.commitWidth && !rob_.empty()) {
        Rec &rec = ring(rob_.front());
        if (rec.completedAt == 0 || rec.completedAt > now_)
            break;
        if (rec.probe.isStore) {
            // Store data must be ready (split STA/STD) and the store
            // buffer must have room.
            if (!srcReady(rec.storeDataSrc))
                break;
            if (!rec.probe.skip &&
                storeBuffer_.size() >= cfg_.storeBufferSize)
                break;
        }

        if (rec.probe.isStore && !rec.probe.skip) {
            storeBuffer_.push_back({rec.probe.memVaddr, rec.probe.memPaddr,
                                    rec.probe.memData, rec.probe.memSize,
                                    rec.seq, now_ + 4});
            ++perf_.stores;
        } else if (rec.probe.isStore) {
            // MMIO stores never enter the store buffer; drop them from
            // the in-flight set at commit.
            inflightStores_.retire(rec.seq);
        }

        if (rec.probe.isLoad && faultMask_ && !rec.probe.skip) {
            // DiffTest demo: corrupt one committed load value (the
            // register view and the memory-data view consistently, as
            // a real datapath bug would).
            rec.probe.rdValue ^= faultMask_;
            rec.probe.memData ^= faultMask_;
            faultMask_ = 0;
        }

        if (commitFaultMask_ && rec.probe.rdWritten &&
            (!commitFaultOp_ || rec.di.op == *commitFaultOp_)) {
            // Test-only fault hook: the DUT-visible committed register
            // value is corrupted; the oracle stays correct, so DiffTest
            // must flag this very commit.
            rec.probe.rdValue ^= commitFaultMask_;
            commitFaultMask_ = 0;
            if (trace_)
                trace_->record(obs::Ev::FaultInject, now_, rec.pc,
                               rec.probe.rdValue, 0,
                               static_cast<uint8_t>(hart_));
        }

        trainPredictors(rec);
        // Trace the commit before the hook runs: DiffTest checks the
        // probe inside the hook and snapshots the trace window at the
        // first mismatch, so the divergent commit must already be in
        // the ring.
        if (trace_)
            trace_->record(obs::Ev::Commit, now_, rec.pc,
                           rec.probe.rdValue, rec.probe.rd,
                           static_cast<uint8_t>(hart_));
        if (commitBatchHook_)
            commitBatch_.push_back(rec.probe);

        if (rec.probe.isLoad)
            --lqUsed_;
        if (rec.probe.isStore)
            --sqUsed_;
        if (!rec.eliminated) {
            if (rec.probe.rdWritten)
                --intPrfUsed_;
            else if (!rec.trapped && writesFpRd(rec.di.op))
                --fpPrfUsed_;
        }
        // Clear the rename map if this instruction is still the
        // youngest producer of its destination.
        if (!rec.trapped) {
            if (rec.probe.rdWritten &&
                renameMap_[srcSlot(rec.di.rd, false)] == rec.seq)
                renameMap_[srcSlot(rec.di.rd, false)] = 0;
            else if (writesFpRd(rec.di.op) &&
                     renameMap_[srcSlot(rec.di.rd, true)] == rec.seq)
                renameMap_[srcSlot(rec.di.rd, true)] = 0;
        }

        lastCommittedSeq_ = rec.seq;
        ++perf_.instrs;
        ++committed;

        if (rec.serialize) {
            fetchResumeAt_ = std::max(
                fetchResumeAt_,
                now_ + (rec.trapped ? cfg_.trapPenalty : 2));
            if (rec.di.op == Op::SfenceVma)
                mem_.flushTlbs(hart_);
        }

        rob_.pop_front();
    }
    if (!commitBatch_.empty()) {
        // One delivery per commit group, probes in program order
        // (doCommit never aborts mid-group on a checker verdict).
        commitBatchHook_(commitBatch_.data(),
                         static_cast<unsigned>(commitBatch_.size()));
        commitBatch_.clear();
    }
    return committed;
}

void
Core::classifyCycle(unsigned committed)
{
    // Exclusive attribution: exactly one bucket per cycle, so the
    // buckets sum to perf_.cycles by construction. Priority follows
    // the top-down method: retiring wins; otherwise blame the oldest
    // in-flight instruction; an empty window is the frontend's fault
    // unless fetch is deliberately parked behind a mispredicted branch
    // (bad speculation) or a serializing instruction (core-bound).
    if (committed > 0) {
        ++perf_.tdRetiring;
    } else if (!rob_.empty()) {
        const Rec &head = ring(rob_.front());
        if (head.probe.isLoad || head.probe.isStore)
            ++perf_.tdBackendMem;
        else
            ++perf_.tdBackendCore;
    } else if (mispredictWaitSeq_ != 0) {
        ++perf_.tdBadSpec;
    } else if (serializeWaitSeq_ != 0) {
        ++perf_.tdBackendCore;
    } else {
        ++perf_.tdFrontend;
    }
}

Cycle
Core::nextEventAt() const
{
    // Called after now_ advanced to the next unexecuted cycle: the
    // earliest event at cycle >= now_ is the first cycle any stage
    // predicate can flip (events < now_ already fired or are
    // permanently-true thresholds). Every readiness test in the model
    // is a threshold comparison against a time frozen before the idle
    // stretch began, so every cycle before that event replays the
    // just-executed idle tick verbatim.
    Cycle best = 0;
    auto consider = [&](Cycle c) {
        if (c >= now_ && (best == 0 || c < best))
            best = c;
    };
    if (cfg_.model.bitsetSched) {
        // All pending completions live in the event heap or the
        // next-cycle lane (whose entries are due exactly at now_ + 1).
        // The lane is in fact always empty here — scheduling into it
        // requires an issue this tick, which defeats the idle check —
        // but considering it keeps this function correct on its own.
        if (!nextCycleQ_.empty())
            consider(now_ + 1);
        if (!compHeap_.empty())
            consider(compHeap_.front().first);
    } else {
        for (size_t i = 0, n = rob_.size(); i < n; ++i)
            consider(ring(rob_[i]).completedAt);
    }
    if (!fetchBuffer_.empty())
        consider(ring(fetchBuffer_.front()).fetchReadyAt);
    consider(fetchResumeAt_);
    if (!storeBuffer_.empty())
        consider(storeBuffer_.front().drainableAt);
    for (unsigned ft = 0; ft < N_FU; ++ft)
        for (Cycle c : fuBusyUntil_[ft])
            consider(c);
    return best;
}

void
Core::applyIdleDelta(Cycle extra)
{
    // The idle tick just executed bumped only counters, by amounts
    // that are a pure function of state this tick did not change —
    // replicate those per-cycle deltas over the skipped stretch in
    // closed form. PerfCounters is a plain array of u64 lanes, so this
    // covers every present and future counter (cycles, stall splits,
    // readyHist, the top-down buckets) without naming them.
    static_assert(sizeof(PerfCounters) % sizeof(uint64_t) == 0,
                  "PerfCounters must stay u64-lane shaped for "
                  "skip-ahead delta replication");
    static_assert(std::is_trivially_copyable_v<PerfCounters>,
                  "PerfCounters must stay trivially copyable");
    auto *cur = reinterpret_cast<uint64_t *>(&perf_);
    auto *prev = reinterpret_cast<const uint64_t *>(&idleSnap_);
    constexpr size_t lanes = sizeof(PerfCounters) / sizeof(uint64_t);
    for (size_t i = 0; i < lanes; ++i)
        cur[i] += extra * (cur[i] - prev[i]);
    now_ += extra;
    skippedCycles_ += extra;
    ++skipJumps_;
}

Cycle
Core::tick(Cycle budget)
{
    if (cfg_.model.bitsetSched)
        drainCompletions();

    // Snapshotting PerfCounters every tick would tax busy (compute-
    // bound) stretches that never skip, so the snapshot is only armed
    // once the previous tick already proved idle: each idle stretch
    // pays one plain verification tick up front, busy ticks pay
    // nothing. Host-only heuristic — skipping remains gated on the
    // full idle re-check below, so timing is unaffected.
    bool wantSkip = skipEnabled_ && budget > 1 && lastTickIdle_;
    if (wantSkip)
        idleSnap_ = perf_;
    uint64_t preSeq = nextSeq_;
    size_t preRob = rob_.size();
    size_t preFb = fetchBuffer_.size();
    size_t preSb = storeBuffer_.size();
    uint64_t preMw = mispredictWaitSeq_;
    uint64_t preSw = serializeWaitSeq_;
    Cycle preResume = fetchResumeAt_;

    unsigned committed = doCommit();
    classifyCycle(committed);
    bool drained = drainStoreBuffer();
    unsigned issued = doIssue();
    doDispatch();
    doFetch();
    ++now_;
    ++perf_.cycles;

    // Idle detection: nothing moved and no stall bookkeeping changed,
    // so until the next timed event every cycle is a verbatim replay
    // of this one (counter deltas included).
    bool idle = committed == 0 && issued == 0 && !drained &&
                nextSeq_ == preSeq && rob_.size() == preRob &&
                fetchBuffer_.size() == preFb &&
                storeBuffer_.size() == preSb &&
                mispredictWaitSeq_ == preMw &&
                serializeWaitSeq_ == preSw &&
                fetchResumeAt_ == preResume;
    lastTickIdle_ = idle;
    if (!wantSkip || !idle)
        return 1;

    Cycle next = nextEventAt();
    if (next <= now_)
        return 1; // fully drained or waiting on nothing timed
    Cycle extra = std::min(next - now_, budget - 1);
    applyIdleDelta(extra);
    return 1 + extra;
}

} // namespace minjie::xs
