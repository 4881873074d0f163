#include "nemu/nemu.h"

#include <algorithm>
#include <cstring>

#include "common/bitutil.h"
#include "common/log.h"
#include "isa/decode.h"

namespace minjie::nemu {

using namespace minjie::isa;
using namespace minjie::iss;

namespace {

/** Threaded-code handler indices; order must match the labels array. */
enum Handler : uint8_t {
    H_LUI, H_AUIPC, H_LI,
    H_ADDI, H_SLTI, H_SLTIU, H_XORI, H_ORI, H_ANDI,
    H_SLLI, H_SRLI, H_SRAI, H_ADDIW, H_SLLIW, H_SRLIW, H_SRAIW,
    H_ADD, H_SUB, H_SLL, H_SLT, H_SLTU, H_XOR, H_SRL, H_SRA, H_OR, H_AND,
    H_ADDW, H_SUBW, H_SLLW, H_SRLW, H_SRAW,
    H_MUL, H_MULH, H_MULHSU, H_MULHU, H_DIV, H_DIVU, H_REM, H_REMU,
    H_MULW, H_DIVW, H_DIVUW, H_REMW, H_REMUW,
    H_LD, H_LW, H_LWU, H_LH, H_LHU, H_LB, H_LBU,
    H_SD, H_SW, H_SH, H_SB,
    H_FLD, H_FLW, H_FSD, H_FSW,
    H_BEQ, H_BNE, H_BLT, H_BGE, H_BLTU, H_BGEU,
    H_J, H_JAL, H_JALR, H_RET,
    H_FP,
    H_SLOW,
    H_COUNT,
};

int64_t s64(uint64_t v) { return static_cast<int64_t>(v); }
int32_t s32(uint64_t v) { return static_cast<int32_t>(v); }
uint64_t sx32(uint64_t v) { return static_cast<uint64_t>(sext(v, 32)); }

} // namespace

void
Nemu::assignHandler(Uop &u, const DecodedInst &di)
{
    const void *const *tab = handlers();
    auto set = [&](Handler h) { u.handler = tab[h]; };

    u.rd = di.rd == 0 ? &sink_ : &st_.x[di.rd];
    u.rs1 = &st_.x[di.rs1];
    u.rs2 = &st_.x[di.rs2];
    u.imm = di.imm;
    u.op = di.op;
    u.rm = di.rm;
    u.rs3 = di.rs3;

    switch (di.op) {
      case Op::Lui: set(H_LUI); break;
      case Op::Auipc:
        // Pseudo-inst specialization: fold pc into the immediate.
        u.imm = static_cast<int64_t>(u.pc + di.imm);
        set(H_AUIPC);
        break;
      case Op::Addi:
        // li specialization: rs1 == x0 means "load immediate".
        set(di.rs1 == 0 ? H_LI : H_ADDI);
        break;
      case Op::Slti: set(H_SLTI); break;
      case Op::Sltiu: set(H_SLTIU); break;
      case Op::Xori: set(H_XORI); break;
      case Op::Ori: set(H_ORI); break;
      case Op::Andi: set(H_ANDI); break;
      case Op::Slli: set(H_SLLI); break;
      case Op::Srli: set(H_SRLI); break;
      case Op::Srai: set(H_SRAI); break;
      case Op::Addiw: set(H_ADDIW); break;
      case Op::Slliw: set(H_SLLIW); break;
      case Op::Srliw: set(H_SRLIW); break;
      case Op::Sraiw: set(H_SRAIW); break;
      case Op::Add: set(H_ADD); break;
      case Op::Sub: set(H_SUB); break;
      case Op::Sll: set(H_SLL); break;
      case Op::Slt: set(H_SLT); break;
      case Op::Sltu: set(H_SLTU); break;
      case Op::Xor: set(H_XOR); break;
      case Op::Srl: set(H_SRL); break;
      case Op::Sra: set(H_SRA); break;
      case Op::Or: set(H_OR); break;
      case Op::And: set(H_AND); break;
      case Op::Addw: set(H_ADDW); break;
      case Op::Subw: set(H_SUBW); break;
      case Op::Sllw: set(H_SLLW); break;
      case Op::Srlw: set(H_SRLW); break;
      case Op::Sraw: set(H_SRAW); break;
      case Op::Mul: set(H_MUL); break;
      case Op::Mulh: set(H_MULH); break;
      case Op::Mulhsu: set(H_MULHSU); break;
      case Op::Mulhu: set(H_MULHU); break;
      case Op::Div: set(H_DIV); break;
      case Op::Divu: set(H_DIVU); break;
      case Op::Rem: set(H_REM); break;
      case Op::Remu: set(H_REMU); break;
      case Op::Mulw: set(H_MULW); break;
      case Op::Divw: set(H_DIVW); break;
      case Op::Divuw: set(H_DIVUW); break;
      case Op::Remw: set(H_REMW); break;
      case Op::Remuw: set(H_REMUW); break;
      case Op::Ld: set(H_LD); break;
      case Op::Lw: set(H_LW); break;
      case Op::Lwu: set(H_LWU); break;
      case Op::Lh: set(H_LH); break;
      case Op::Lhu: set(H_LHU); break;
      case Op::Lb: set(H_LB); break;
      case Op::Lbu: set(H_LBU); break;
      case Op::Sd: set(H_SD); break;
      case Op::Sw: set(H_SW); break;
      case Op::Sh: set(H_SH); break;
      case Op::Sb: set(H_SB); break;
      case Op::Fld:
        u.rd = &st_.f[di.rd];
        set(H_FLD);
        break;
      case Op::Flw:
        u.rd = &st_.f[di.rd];
        set(H_FLW);
        break;
      case Op::Fsd:
        u.rs2 = &st_.f[di.rs2];
        set(H_FSD);
        break;
      case Op::Fsw:
        u.rs2 = &st_.f[di.rs2];
        set(H_FSW);
        break;
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
      case Op::Bltu: case Op::Bgeu:
        // Precompute the absolute taken target: the branch handlers
        // never need the cold decode.
        u.imm = static_cast<int64_t>(u.pc + di.imm);
        switch (di.op) {
          case Op::Beq: set(H_BEQ); break;
          case Op::Bne: set(H_BNE); break;
          case Op::Blt: set(H_BLT); break;
          case Op::Bge: set(H_BGE); break;
          case Op::Bltu: set(H_BLTU); break;
          default: set(H_BGEU); break;
        }
        break;
      case Op::Jal:
        u.imm = static_cast<int64_t>(u.pc + di.imm); // absolute target
        set(di.rd == 0 ? H_J : H_JAL);
        break;
      case Op::Jalr:
        // ret specialization: jalr x0, 0(rs1). rs2 is unused, so the
        // slot doubles as the indirect inline-cache key (with target
        // as the cached uop index), keeping the cache in the hot line.
        u.indirPc = ~0ULL;
        set(di.rd == 0 && di.imm == 0 ? H_RET : H_JALR);
        break;
      default:
        if (isFp(di.op) && !isMem(di.op)) {
            u.rs1 = readsFpRs1(di.op) ? &st_.f[di.rs1] : &st_.x[di.rs1];
            u.rs2 = &st_.f[di.rs2];
            u.rd = writesFpRd(di.op)
                ? &st_.f[di.rd]
                : (di.rd == 0 ? &sink_ : &st_.x[di.rd]);
            set(H_FP);
        } else {
            set(H_SLOW);
        }
        break;
    }

    // The branch-predictor-friendly "+1" rule requires every branch to
    // know its own fallthrough; interior uops use sequential dispatch.
}

Nemu::Nemu(mem::MemPort &bus, mem::PhysMem &dram, HartId hart, Addr entry,
           unsigned uopCacheCap)
    : Interp(bus, hart, entry, fp::FpBackend::Host), dram_(dram),
      cap_(uopCacheCap)
{
    uops_.reserve(cap_ + 256);
    cold_.reserve(cap_ + 256);
    handlerTable(false); // force label collection before first translation
    // @p dram is the bus's DRAM: the interpreter's own loads, stores and
    // fetches (the step path DiffTest drives) skip the bus dispatch.
    mmu_.bindDram(&dram);
    stampRegime();
    // A guest TLB flush (sfence.vma) must also shoot down the cached
    // host pointers derived from those translations.
    mmu_.setFlushHook([this] { hostTlbFlush(); });
}

void
Nemu::flushUopCache()
{
    uops_.clear();
    cold_.clear();
    pcMap_.clear();
    ++stats_.flushes;
    // Uop-cache flushes accompany every translation-regime change
    // (fence.i, satp write, xRET, trap): drop the host pointers too.
    hostTlbFlush();
}

int32_t
Nemu::translateBlock(Addr pc, Trap &trap)
{
    if (uops_.size() >= cap_)
        flushUopCache();

    int32_t first = static_cast<int32_t>(uops_.size());
    Addr cur = pc;
    int32_t chainFrom = -1; // jal uop waiting for its inlined target
    for (unsigned n = 0; n < 128; ++n) {
        if (chainFrom >= 0) {
            // Superblock formation ran into already-translated code:
            // chain the jump to the existing entry and stop.
            auto hit = pcMap_.find(cur);
            if (hit != pcMap_.end()) {
                uops_[static_cast<size_t>(chainFrom)].target = hit->second;
                chainFrom = -1;
                break;
            }
        }
        uint32_t raw;
        Trap t = mmu_.fetch(cur, raw);
        if (t.pending()) {
            if (uops_.size() == static_cast<size_t>(first)) {
                trap = t;
                return -1;
            }
            break; // partial block is fine; the tail re-faults on reach
        }
        DecodedInst di = decode(raw);
        ++stats_.translations;
        Uop u;
        u.pc = cur;
        u.size = di.size;
        assignHandler(u, di);
        uops_.push_back(u);
        UopCold cold;
        cold.di = di;
        cold_.push_back(cold);
        int32_t here = static_cast<int32_t>(uops_.size() - 1);
        pcMap_.emplace(cur, here);
        if (chainFrom >= 0) {
            uops_[static_cast<size_t>(chainFrom)].target = here;
            chainFrom = -1;
        }
        cur += di.size;
        if (uops_.size() >= cap_ + 128)
            break;
        if (chainOn_ && di.op == Op::Jal) {
            // Superblock formation: follow the unconditional direct
            // jump so the hot trace stays contiguous, pre-chaining the
            // jal to the uop translated next.
            chainFrom = here;
            cur = u.pc + di.imm;
            ++stats_.superblockJumps;
            continue;
        }
        if (isControl(di.op) || isSystem(di.op) || isFence(di.op) ||
            di.op == Op::Illegal)
            break;
    }
    // A truncated block (length limit or a mid-block fetch fault) ends
    // in a non-terminator whose "+1" successor is NOT the next guest
    // instruction; route it through the generic handler, which re-syncs
    // pc and re-dispatches by lookup.
    if (!uops_.empty()) {
        Uop &last = uops_.back();
        Op lop = last.op;
        if (!(isControl(lop) || isSystem(lop) || isFence(lop) ||
              lop == Op::Illegal))
            last.handler = handlers()[H_SLOW];
    }
    return first;
}

int32_t
Nemu::lookupOrTranslate(Addr pc, Trap &trap)
{
    auto it = pcMap_.find(pc);
    if (it != pcMap_.end()) {
        ++stats_.uopHits;
        return it->second;
    }
    return translateBlock(pc, trap);
}

Trap
Nemu::stepOnce(ExecInfo *info)
{
    Trap t = Trap::none();
    // Straight-line stepping: the uop after the last one stepped is
    // usually the one at pc. Every cached uop was translated under the
    // current regime (flushes clear the whole cache), so a pc match is
    // a valid translation and the hash lookup can be skipped.
    int32_t idx = stepIdx_ + 1;
    if (static_cast<size_t>(idx) < uops_.size() &&
        uops_[static_cast<size_t>(idx)].pc == st_.pc)
        ++stats_.uopHits;
    else
        idx = lookupOrTranslate(st_.pc, t);
    stepIdx_ = idx;
    if (idx < 0)
        return t;
    const DecodedInst &di = cold_[static_cast<size_t>(idx)].di;

    if (blockHook_) {
        if (blockStart_ == ~0ULL)
            blockStart_ = st_.pc;
        ++blockLen_;
    }

    // Always observe CSR writes even when the caller passed no probe:
    // satp-write detection below must not depend on it.
    ExecInfo local;
    ExecInfo *ei = info ? info : &local;
    Trap et = execInst(st_, mmu_, di, fpb_, ei);

    if (blockHook_ &&
        (isControl(di.op) || isSystem(di.op) || et.pending())) {
        blockHook_(blockStart_, blockLen_);
        blockStart_ = ~0ULL;
        blockLen_ = 0;
    }

    // Flush conditions: code or translation environment changed.
    if (di.op == Op::FenceI || di.op == Op::SfenceVma) {
        flushUopCache();
    } else if (ei->csrWritten && ei->csrAddr == CSR_SATP) {
        flushUopCache();
    } else if (et.pending() || di.op == Op::Mret || di.op == Op::Sret) {
        // Privilege may have changed; virtual pc aliasing requires a
        // flush when the translation regime differs.
        flushUopCache();
    } else if (ei->csrWritten) {
        hostTlbFlush();
    }
    return et;
}

void
Nemu::profileBbvs(InstCount intervalInsts)
{
    prof_ = std::make_unique<BbvProfile>();
    prof_->intervalInsts = intervalInsts;
    prof_->blockPc = st_.pc;
    prof_->blockMark = prof_->intervalMark = st_.instret;
    flushUopCache();
}

std::vector<Bbv>
Nemu::takeBbvs()
{
    std::vector<Bbv> out;
    if (!prof_)
        return out;
    if (!prof_->touched.empty())
        bbvCloseInterval();
    out = std::move(prof_->intervals);
    prof_.reset();
    flushUopCache(); // back to the plain handler table
    return out;
}

int32_t
Nemu::bbvSlot(Addr pc)
{
    BbvProfile &p = *prof_;
    auto [it, fresh] =
        p.slotOf.emplace(pc, static_cast<int32_t>(p.slotPc.size()));
    if (fresh) {
        p.slotPc.push_back(pc);
        p.count.push_back(0);
    }
    return it->second;
}

inline void
Nemu::bbvEnd(InstCount retired, Addr nextPc)
{
    BbvProfile &p = *prof_;
    int32_t s = p.blockSlot >= 0 ? p.blockSlot : bbvSlot(p.blockPc);
    if (p.count[static_cast<size_t>(s)] == 0)
        p.touched.push_back(s);
    p.count[static_cast<size_t>(s)] += retired - p.blockMark;
    p.blockMark = retired;
    if (retired - p.intervalMark >= p.intervalInsts) {
        bbvCloseInterval();
        p.intervalMark = retired;
    }
    p.blockPc = nextPc;
    p.blockSlot = -1;
}

void
Nemu::bbvCloseInterval()
{
    BbvProfile &p = *prof_;
    std::sort(p.touched.begin(), p.touched.end(),
              [&](int32_t a, int32_t b) {
                  return p.slotPc[static_cast<size_t>(a)] <
                         p.slotPc[static_cast<size_t>(b)];
              });
    Bbv bbv;
    for (int32_t s : p.touched) {
        auto i = static_cast<size_t>(s);
        bbv.emplace_hint(bbv.end(), p.slotPc[i], p.count[i]);
        p.count[i] = 0;
    }
    p.touched.clear();
    p.intervals.push_back(std::move(bbv));
}

/**
 * The threaded-code engine. Prof = true is the BBV-profiling
 * specialization: block ends (control transfers, system instructions,
 * traps) charge the open block's length to its start pc's slot. The
 * profiling code compiles away entirely in the plain engine.
 */
struct NemuExec
{
    template <bool Prof>
    static RunResult
    engine(Nemu *self, InstCount maxInsts, const void *const **tableOut)
    {
        // Label table, collected once on the first (self == nullptr)
        // invocation; order must match enum Handler.
        static const void *labels[] = {
            &&h_lui, &&h_auipc, &&h_li,
            &&h_addi, &&h_slti, &&h_sltiu, &&h_xori, &&h_ori, &&h_andi,
            &&h_slli, &&h_srli, &&h_srai, &&h_addiw, &&h_slliw,
            &&h_srliw, &&h_sraiw,
            &&h_add, &&h_sub, &&h_sll, &&h_slt, &&h_sltu, &&h_xor,
            &&h_srl, &&h_sra, &&h_or, &&h_and,
            &&h_addw, &&h_subw, &&h_sllw, &&h_srlw, &&h_sraw,
            &&h_mul, &&h_mulh, &&h_mulhsu, &&h_mulhu, &&h_div, &&h_divu,
            &&h_rem, &&h_remu,
            &&h_mulw, &&h_divw, &&h_divuw, &&h_remw, &&h_remuw,
            &&h_ld, &&h_lw, &&h_lwu, &&h_lh, &&h_lhu, &&h_lb, &&h_lbu,
            &&h_sd, &&h_sw, &&h_sh, &&h_sb,
            &&h_fld, &&h_flw, &&h_fsd, &&h_fsw,
            &&h_beq, &&h_bne, &&h_blt, &&h_bge, &&h_bltu, &&h_bgeu,
            &&h_j, &&h_jal, &&h_jalr, &&h_ret,
            &&h_fp,
            &&h_slow,
        };
        static_assert(std::size(labels) == H_COUNT);
        if (tableOut) {
            *tableOut = labels;
            return {};
        }

        Nemu &n = *self;
        ArchState &st = n.st_;
        mem::PhysMem &dram = n.dram_;
        RunResult result;

        const bool chain = n.chainOn_;
        const bool fastOn = n.fastPathOn_;
        // State mutated outside run() (DiffTest pokes, checkpoint
        // restore, DRAM clear) invalidates cached host pointers.
        if (n.regimeChanged())
            n.hostTlbFlush();
        bool fastmem = fastOn && n.fastMemOk();
        bool fpDirty = false;
        // Start from a clean host-FPU flag state for deferred capture.
        (void)fp::harvestHostFpFlags();
        Trap trap = Trap::none();

        while (result.executed < maxInsts) {
            InstCount chunk = maxInsts - result.executed;
            if (chunk > 8192)
                chunk = 8192;
            InstCount budget = chunk;

            int32_t idx = n.lookupOrTranslate(st.pc, trap);
            // uops_ reserves cap_+256 up front and flushes clear()
            // without shrinking, so data() never moves: the base can
            // live in a register across handler calls that append or
            // flush entries, and chain edges resolve with one add.
            Nemu::Uop *const ubase = n.uops_.data();
            Nemu::Uop *u = ubase;
            if (idx < 0)
                goto take_fetch_trap;
            u = ubase + idx;

// Dispatch the uop u already points at. The budget check runs before
// the handler, so at chunk_done u names the next undispatched uop.
#define DISPATCH() \
    do { \
        if (budget == 0) \
            goto chunk_done; \
        --budget; \
        goto *u->handler; \
    } while (0)

// Advance within a block: trace organization guarantees +1, so the
// cursor is a pointer increment with no index arithmetic.
#define NEXT() \
    do { \
        ++u; \
        DISPATCH(); \
    } while (0)

// BBV profiling (Prof only). BBV_END closes the open block at the
// current uop, which has retired: instret lags by the uops dispatched
// in this chunk. BBV_START runs once u names the next block's first
// uop and takes the slot it caches.
#define BBV_END(nextPc) \
    do { \
        if constexpr (Prof) \
            n.bbvEnd(st.instret + (chunk - budget), (nextPc)); \
    } while (0)
#define BBV_START() \
    do { \
        if constexpr (Prof) { \
            int32_t s_ = u->bbvSlot; \
            if (s_ < 0) { \
                s_ = n.bbvSlot(u->pc); \
                if (s_ <= INT16_MAX) \
                    u->bbvSlot = static_cast<int16_t>(s_); \
            } \
            n.prof_->blockSlot = s_; \
        } \
    } while (0)

// Resolve a control-transfer edge with block chaining. @p field caches
// the resolved uop index unless the cache was flushed during translate.
// With chaining ablated, every control transfer leaves the threaded
// code and returns to the outer dispatch loop (pc sync, retirement
// accounting, halt poll, hash-map lookup) — the classic unchained
// interpreter block boundary the optimization removes.
#define CHAIN(field, targetPc) \
    do { \
        BBV_END(targetPc); \
        if (!chain) { \
            st.pc = (targetPc); \
            goto block_boundary; \
        } \
        int32_t t = u->field; \
        if (t < 0) { \
            Nemu::Uop *cu = u; \
            uint64_t fl = n.stats_.flushes; \
            t = n.lookupOrTranslate((targetPc), trap); \
            if (t < 0) { \
                st.pc = (targetPc); \
                goto take_fetch_trap; \
            } \
            if (n.stats_.flushes == fl) \
                cu->field = t; \
            ++n.stats_.chainResolves; \
        } \
        u = ubase + t; \
        BBV_START(); \
        DISPATCH(); \
    } while (0)

// Resolve an indirect control transfer: a one-entry inline cache per
// uop (last target pc in the repurposed rs2 slot, its uop index in
// target) backed by the pc hash map. Living in the hot uop, the cache
// hit costs one compare on an already-fetched line.
#define CHAIN_INDIRECT(targetPc) \
    do { \
        Addr tp = (targetPc); \
        BBV_END(tp); \
        if (!chain) { \
            st.pc = tp; \
            goto block_boundary; \
        } \
        if (u->indirPc == tp) { \
            u = ubase + u->target; \
            BBV_START(); \
            DISPATCH(); \
        } \
        Nemu::Uop *cu = u; \
        uint64_t fl = n.stats_.flushes; \
        int32_t t = n.lookupOrTranslate(tp, trap); \
        if (t < 0) { \
            st.pc = tp; \
            goto take_fetch_trap; \
        } \
        if (n.stats_.flushes == fl) { \
            cu->indirPc = tp; \
            cu->target = t; \
        } \
        ++n.stats_.chainResolves; \
        u = ubase + t; \
        BBV_START(); \
        DISPATCH(); \
    } while (0)

            DISPATCH();

          h_lui: *u->rd = static_cast<uint64_t>(u->imm); NEXT();
          h_auipc: *u->rd = static_cast<uint64_t>(u->imm); NEXT();
          h_li: *u->rd = static_cast<uint64_t>(u->imm); NEXT();
          h_addi: *u->rd = *u->rs1 + u->imm; NEXT();
          h_slti: *u->rd = s64(*u->rs1) < u->imm; NEXT();
          h_sltiu: *u->rd = *u->rs1 < static_cast<uint64_t>(u->imm); NEXT();
          h_xori: *u->rd = *u->rs1 ^ u->imm; NEXT();
          h_ori: *u->rd = *u->rs1 | u->imm; NEXT();
          h_andi: *u->rd = *u->rs1 & u->imm; NEXT();
          h_slli: *u->rd = *u->rs1 << (u->imm & 63); NEXT();
          h_srli: *u->rd = *u->rs1 >> (u->imm & 63); NEXT();
          h_srai:
            *u->rd = static_cast<uint64_t>(s64(*u->rs1) >> (u->imm & 63));
            NEXT();
          h_addiw: *u->rd = sx32(*u->rs1 + u->imm); NEXT();
          h_slliw: *u->rd = sx32(*u->rs1 << (u->imm & 31)); NEXT();
          h_srliw:
            *u->rd = sx32((*u->rs1 & 0xffffffffu) >> (u->imm & 31));
            NEXT();
          h_sraiw:
            *u->rd = static_cast<uint64_t>(
                static_cast<int64_t>(s32(*u->rs1) >> (u->imm & 31)));
            NEXT();
          h_add: *u->rd = *u->rs1 + *u->rs2; NEXT();
          h_sub: *u->rd = *u->rs1 - *u->rs2; NEXT();
          h_sll: *u->rd = *u->rs1 << (*u->rs2 & 63); NEXT();
          h_slt: *u->rd = s64(*u->rs1) < s64(*u->rs2); NEXT();
          h_sltu: *u->rd = *u->rs1 < *u->rs2; NEXT();
          h_xor: *u->rd = *u->rs1 ^ *u->rs2; NEXT();
          h_srl: *u->rd = *u->rs1 >> (*u->rs2 & 63); NEXT();
          h_sra:
            *u->rd = static_cast<uint64_t>(s64(*u->rs1) >> (*u->rs2 & 63));
            NEXT();
          h_or: *u->rd = *u->rs1 | *u->rs2; NEXT();
          h_and: *u->rd = *u->rs1 & *u->rs2; NEXT();
          h_addw: *u->rd = sx32(*u->rs1 + *u->rs2); NEXT();
          h_subw: *u->rd = sx32(*u->rs1 - *u->rs2); NEXT();
          h_sllw: *u->rd = sx32(*u->rs1 << (*u->rs2 & 31)); NEXT();
          h_srlw:
            *u->rd = sx32((*u->rs1 & 0xffffffffu) >> (*u->rs2 & 31));
            NEXT();
          h_sraw:
            *u->rd = static_cast<uint64_t>(
                static_cast<int64_t>(s32(*u->rs1) >> (*u->rs2 & 31)));
            NEXT();

          h_mul: *u->rd = *u->rs1 * *u->rs2; NEXT();
          h_mulh:
            *u->rd = static_cast<uint64_t>(
                (static_cast<__int128>(s64(*u->rs1)) * s64(*u->rs2)) >> 64);
            NEXT();
          h_mulhsu:
            *u->rd = static_cast<uint64_t>(
                (static_cast<__int128>(s64(*u->rs1)) *
                 static_cast<unsigned __int128>(*u->rs2)) >> 64);
            NEXT();
          h_mulhu:
            *u->rd = static_cast<uint64_t>(
                (static_cast<unsigned __int128>(*u->rs1) * *u->rs2) >> 64);
            NEXT();
          h_div: {
            int64_t a = s64(*u->rs1), b = s64(*u->rs2);
            *u->rd = b == 0 ? ~0ULL
                : (a == INT64_MIN && b == -1
                       ? static_cast<uint64_t>(INT64_MIN)
                       : static_cast<uint64_t>(a / b));
            NEXT();
          }
          h_divu:
            *u->rd = *u->rs2 == 0 ? ~0ULL : *u->rs1 / *u->rs2;
            NEXT();
          h_rem: {
            int64_t a = s64(*u->rs1), b = s64(*u->rs2);
            *u->rd = b == 0 ? static_cast<uint64_t>(a)
                : (a == INT64_MIN && b == -1
                       ? 0 : static_cast<uint64_t>(a % b));
            NEXT();
          }
          h_remu:
            *u->rd = *u->rs2 == 0 ? *u->rs1 : *u->rs1 % *u->rs2;
            NEXT();
          h_mulw: *u->rd = sx32(*u->rs1 * *u->rs2); NEXT();
          h_divw: {
            int32_t a = s32(*u->rs1), b = s32(*u->rs2);
            int32_t r = b == 0 ? -1
                : (a == INT32_MIN && b == -1 ? INT32_MIN : a / b);
            *u->rd = static_cast<uint64_t>(static_cast<int64_t>(r));
            NEXT();
          }
          h_divuw: {
            uint32_t a = static_cast<uint32_t>(*u->rs1);
            uint32_t b = static_cast<uint32_t>(*u->rs2);
            *u->rd = b == 0 ? ~0ULL : sx32(a / b);
            NEXT();
          }
          h_remw: {
            int32_t a = s32(*u->rs1), b = s32(*u->rs2);
            int32_t r = b == 0 ? a
                : (a == INT32_MIN && b == -1 ? 0 : a % b);
            *u->rd = static_cast<uint64_t>(static_cast<int64_t>(r));
            NEXT();
          }
          h_remuw: {
            uint32_t a = static_cast<uint32_t>(*u->rs1);
            uint32_t b = static_cast<uint32_t>(*u->rs2);
            *u->rd = b == 0 ? sx32(a) : sx32(a % b);
            NEXT();
          }

// Fast-path load, tried in order: (1) host-pointer TLB hit — an aligned
// access whose virtual page was translated before reads host memory
// directly, skipping Mmu::translate and the bus; (2) direct DRAM access
// when translation is off in M-mode; (3) the full MMU walk, which on
// success fills the host-pointer TLB for the next access to that page.
#define LOAD(size, convert) \
    do { \
        Addr addr = *u->rs1 + u->imm; \
        uint64_t data; \
        const auto &he = n.ldTlb_[(addr >> 12) & Nemu::HTLB_MASK]; \
        if ((addr & ((size) - 1)) == 0 && he.vpn == (addr >> 12)) { \
            data = 0; \
            std::memcpy(&data, he.host + (addr & 0xfff), (size)); \
        } else if (fastmem && dram.contains(addr, size)) { \
            dram.read(addr, size, data); \
            /* M-mode bare: identity mapping, cache the host page. */ \
            n.hostTlbFillPhys(n.ldTlb_, addr, addr, size); \
        } else { \
            st.pc = u->pc; \
            Trap t = n.mmu_.load(addr, size, data); \
            if (t.pending()) { \
                trap = t; \
                goto take_trap; \
            } \
            if (fastOn) \
                n.hostTlbFill(n.ldTlb_, addr, size); \
        } \
        *u->rd = (convert); \
        NEXT(); \
    } while (0)

#define STORE(size, value) \
    do { \
        Addr addr = *u->rs1 + u->imm; \
        const auto &he = n.stTlb_[(addr >> 12) & Nemu::HTLB_MASK]; \
        if ((addr & ((size) - 1)) == 0 && he.vpn == (addr >> 12)) { \
            uint64_t v = (value); \
            std::memcpy(he.host + (addr & 0xfff), &v, (size)); \
        } else if (fastmem && dram.contains(addr, size)) { \
            dram.write(addr, size, (value)); \
            n.hostTlbFillPhys(n.stTlb_, addr, addr, size); \
        } else { \
            st.pc = u->pc; \
            Trap t = n.mmu_.store(addr, size, (value)); \
            if (t.pending()) { \
                trap = t; \
                goto take_trap; \
            } \
            if (fastOn) \
                n.hostTlbFill(n.stTlb_, addr, size); \
            /* MMIO stores may complete the workload (SimCtrl exit); \
               honour the halt predicate immediately like the baseline \
               engines do. */ \
            if (n.haltFn_ && n.haltFn_()) \
                goto halt_now; \
        } \
        NEXT(); \
    } while (0)

          h_ld: LOAD(8, data);
          h_lw: LOAD(4, static_cast<uint64_t>(sext(data, 32)));
          h_lwu: LOAD(4, data);
          h_lh: LOAD(2, static_cast<uint64_t>(sext(data, 16)));
          h_lhu: LOAD(2, data);
          h_lb: LOAD(1, static_cast<uint64_t>(sext(data, 8)));
          h_lbu: LOAD(1, data);
          h_sd: STORE(8, *u->rs2);
          h_sw: STORE(4, *u->rs2);
          h_sh: STORE(2, *u->rs2);
          h_sb: STORE(1, *u->rs2);
          h_fld: LOAD(8, data);
          h_flw: LOAD(4, fp::boxF32(static_cast<uint32_t>(data)));
          h_fsd: STORE(8, *u->rs2);
          h_fsw: STORE(4, *u->rs2 & 0xffffffffu);

#define BRANCH(cond) \
    do { \
        if (cond) \
            CHAIN(target, static_cast<Addr>(u->imm)); \
        else \
            CHAIN(next, u->pc + u->size); \
    } while (0)

          h_beq: BRANCH(*u->rs1 == *u->rs2);
          h_bne: BRANCH(*u->rs1 != *u->rs2);
          h_blt: BRANCH(s64(*u->rs1) < s64(*u->rs2));
          h_bge: BRANCH(s64(*u->rs1) >= s64(*u->rs2));
          h_bltu: BRANCH(*u->rs1 < *u->rs2);
          h_bgeu: BRANCH(*u->rs1 >= *u->rs2);

          h_j:
            CHAIN(target, static_cast<Addr>(u->imm));
          h_jal:
            *u->rd = u->pc + u->size;
            CHAIN(target, static_cast<Addr>(u->imm));
          h_jalr: {
            // Target computed before the link write (rd may alias rs1).
            Addr target = (*u->rs1 + u->imm) & ~1ULL;
            *u->rd = u->pc + u->size;
            CHAIN_INDIRECT(target);
          }
          h_ret: {
            Addr target = (*u->rs1 + u->imm) & ~1ULL;
            CHAIN_INDIRECT(target);
          }

          h_fp: {
            if (!st.csr.fpEnabled())
                goto slow_path;
            unsigned rm = u->rm;
            if (rm == 7)
                rm = st.csr.frm;
            if (rm > 4)
                goto slow_path;
            uint64_t c = st.f[u->rs3];
            // Deferred-flag host execution: exception bits accumulate
            // in the MXCSR and are harvested before any architectural
            // fflags access (slow path / run exit).
            fp::FpOut out = fp::fpExecFast(u->op, *u->rs1, *u->rs2,
                                           c, rm);
            fpDirty = true;
            *u->rd = out.value;
            if (out.flags)
                st.csr.accumulateFflags(out.flags);
            st.csr.setFsDirty();
            NEXT();
          }

          h_slow:
          slow_path: {
            // Sync pc and the retired-instruction counters (the current
            // uop was dispatched but not yet counted), then run the
            // generic executor and re-resolve everything afterwards.
            if (fpDirty) {
                st.csr.accumulateFflags(fp::harvestHostFpFlags());
                fpDirty = false;
            }
            st.pc = u->pc;
            InstCount completed = chunk - budget - 1;
            st.instret += completed;
            st.csr.minstret += completed;
            st.csr.mcycle += completed;
            result.executed += completed;

            ExecInfo info;
            const DecodedInst &sdi =
                n.cold_[static_cast<size_t>(u - ubase)].di;
            Trap t = execInst(st, n.mmu_, sdi, n.fpb_, &info);
            Op op = sdi.op;
            bool flush = op == Op::FenceI || op == Op::SfenceVma ||
                         (info.csrWritten && info.csrAddr == CSR_SATP) ||
                         op == Op::Mret || op == Op::Sret;
            if (t.pending()) {
                takeTrap(st, t, st.pc);
                result.trapped = true;
                flush = true;
            }
            ++st.instret;
            ++st.csr.minstret;
            ++st.csr.mcycle;
            ++result.executed;
            chunk = budget; // remaining budget becomes the new chunk
            if constexpr (Prof) {
                if (t.pending() || isSystem(op))
                    n.bbvEnd(st.instret, st.pc);
            }
            if (flush)
                n.flushUopCache();
            else if (info.csrWritten)
                // Any CSR write may alter the translation regime
                // (mstatus SUM/MXR/MPRV, satp): drop cached host
                // pointers. flushUopCache above already did so.
                n.hostTlbFlush();
            fastmem = fastOn && n.fastMemOk();
            if (result.executed >= maxInsts || budget == 0)
                goto chunk_boundary;
            idx = n.lookupOrTranslate(st.pc, trap);
            if (idx < 0)
                goto take_fetch_trap;
            u = ubase + idx;
            DISPATCH();
          }

          take_trap: {
            // Memory trap raised by a fast-path handler; pc already set.
            // The trapped instruction counts as a step, matching the
            // baseline engines' accounting.
            InstCount done = chunk - budget;
            st.instret += done;
            st.csr.minstret += done;
            st.csr.mcycle += done;
            result.executed += done;
            takeTrap(st, trap, st.pc);
            if constexpr (Prof)
                n.bbvEnd(st.instret, st.pc); // the trapping inst retired
            trap = Trap::none();
            result.trapped = true;
            fastmem = fastOn && n.fastMemOk();
            n.flushUopCache();
            chunk = budget = 0;
            goto chunk_boundary;
          }

          take_fetch_trap: {
            // Instruction fetch fault: the target instruction was never
            // dispatched; only previously completed uops are counted.
            InstCount done = chunk - budget;
            if (budget == 0 && done > 0) {
                // The budget ended with the jump: stop with pc at its
                // target, so the next step takes the fault, as the
                // step() engines do.
                trap = Trap::none();
                goto block_boundary;
            }
            st.instret += done;
            st.csr.minstret += done;
            st.csr.mcycle += done;
            result.executed += done;
            takeTrap(st, trap, st.pc);
            if constexpr (Prof) {
                // A faulting fetch retires nothing and ends no block;
                // if no block is open yet, it starts at the handler.
                if (st.instret == n.prof_->blockMark) {
                    n.prof_->blockPc = st.pc;
                    n.prof_->blockSlot = -1;
                }
            }
            trap = Trap::none();
            result.trapped = true;
            fastmem = fastOn && n.fastMemOk();
            n.flushUopCache();
            // Guarantee forward progress when the trap handler itself
            // cannot be fetched (e.g. mtvec at unmapped memory).
            if (done == 0)
                ++result.executed;
            chunk = budget = 0;
            goto chunk_boundary;
          }

          halt_now: {
            // The current (store) uop completed and the halt predicate
            // fired; account for it and stop at the next pc.
            InstCount done = chunk - budget;
            st.instret += done;
            st.csr.minstret += done;
            st.csr.mcycle += done;
            result.executed += done;
            st.pc = u->pc + u->size;
            result.halted = true;
            goto out;
          }

          chunk_done: {
            // u names the next (undispatched) uop: resume from there.
            st.pc = u->pc;
            st.instret += chunk;
            st.csr.minstret += chunk;
            st.csr.mcycle += chunk;
            result.executed += chunk;
            goto chunk_boundary;
          }

          block_boundary: {
            // Chaining ablated: the control-transfer uop completed and
            // set st.pc; commit the block and fall back into the outer
            // dispatch loop.
            InstCount done = chunk - budget;
            st.instret += done;
            st.csr.minstret += done;
            st.csr.mcycle += done;
            result.executed += done;
            goto chunk_boundary;
          }

          chunk_boundary:
            if (n.haltFn_ && n.haltFn_()) {
                result.halted = true;
                goto out;
            }
            continue;

          out:
            break;
        }

#undef DISPATCH
#undef NEXT
#undef BBV_END
#undef BBV_START
#undef CHAIN
#undef CHAIN_INDIRECT
#undef LOAD
#undef STORE
#undef BRANCH

        if (fpDirty)
            st.csr.accumulateFflags(fp::harvestHostFpFlags());
        if (!result.halted && self->haltFn_ && self->haltFn_())
            result.halted = true;
        return result;
    }
};

const void *const *
Nemu::handlerTable(bool profiling)
{
    // Magic statics: campaign workers race to translate their first
    // block, so the one-time label collection must be synchronized.
    static const void *const *plain = [] {
        const void *const *t = nullptr;
        NemuExec::engine<false>(nullptr, 0, &t);
        return t;
    }();
    static const void *const *prof = [] {
        const void *const *t = nullptr;
        NemuExec::engine<true>(nullptr, 0, &t);
        return t;
    }();
    return profiling ? prof : plain;
}

RunResult
Nemu::run(InstCount maxInsts)
{
    return prof_ ? NemuExec::engine<true>(this, maxInsts, nullptr)
                 : NemuExec::engine<false>(this, maxInsts, nullptr);
}

} // namespace minjie::nemu
