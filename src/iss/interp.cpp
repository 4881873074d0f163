#include "iss/interp.h"

namespace minjie::iss {

using namespace minjie::isa;

Trap
SpikeInterp::stepOnce(ExecInfo *info)
{
    Addr pc = st_.pc;
    Entry &e = cache_[(pc >> 1) & mask_];
    if (e.tag != pc + 1) {
        ++misses_;
        uint32_t raw;
        Trap t = mmu_.fetch(pc, raw);
        if (t.pending())
            return t;
        e.tag = pc + 1;
        e.di = decode(raw);
    } else {
        ++hits_;
    }
    Trap t = execInst(st_, mmu_, e.di, fpb_, info);
    // The decode cache is pc-tagged, so self-modifying code is seen only
    // after the flush fence.i performs.
    if (e.di.op == Op::FenceI) {
        for (auto &entry : cache_)
            entry.tag = 0;
    }
    return t;
}

Trap
DromajoInterp::stepOnce(ExecInfo *info)
{
    uint32_t raw;
    Trap t = mmu_.fetch(st_.pc, raw);
    if (t.pending())
        return t;
    DecodedInst di = decode(raw);
    return execInst(st_, mmu_, di, fpb_, info);
}

TciInterp::Block *
TciInterp::lookupBlock(Addr pc, Trap &trap)
{
    Block &b = blocks_[(pc >> 1) % BLOCK_CACHE];
    if (b.pc == pc)
        return &b;

    // Translate a basic block: decode until a control transfer or
    // system instruction, lowering each guest instruction to bytecode.
    b.pc = pc;
    b.code.clear();
    b.insts.clear();
    Addr cur = pc;
    for (unsigned n = 0; n < 64; ++n) {
        uint32_t raw;
        Trap t = mmu_.fetch(cur, raw);
        if (t.pending()) {
            if (b.insts.empty()) {
                b.pc = ~0ULL;
                trap = t;
                return nullptr;
            }
            break;
        }
        DecodedInst di = decode(raw);
        auto idx = static_cast<uint8_t>(b.insts.size());
        b.insts.push_back(di);
        b.code.push_back(static_cast<uint8_t>(Bc::LdOperands));
        b.code.push_back(di.rs1);
        b.code.push_back(di.rs2);
        b.code.push_back(static_cast<uint8_t>(Bc::Exec));
        b.code.push_back(idx);
        b.code.push_back(static_cast<uint8_t>(Bc::WriteBack));
        b.code.push_back(di.rd);
        b.code.push_back(static_cast<uint8_t>(Bc::AdvancePc));
        b.code.push_back(di.size);
        cur += di.size;
        if (isControl(di.op) || isSystem(di.op) || isFence(di.op) ||
            di.op == Op::Illegal)
            break;
    }
    ++translated_;
    return &b;
}

Trap
TciInterp::stepOnce(ExecInfo *info)
{
    // Fall through to the next record of the current block when the
    // pc is the one it predicts; anything else is a block entry.
    Block *b = ftBlock_;
    size_t idx = ftIdx_;
    ftBlock_ = nullptr;
    if (!b || st_.pc != ftPc_) {
        Trap trap = Trap::none();
        b = lookupBlock(st_.pc, trap);
        if (!b)
            return trap;
        idx = 0;
    }

    // Walk this instruction's 4 bytecode records through the nested
    // dispatcher (the TCI-style overhead being modeled).
    Addr pc = st_.pc;
    size_t cp = idx * 9; // each guest inst lowers to 9 bytecode bytes
    const DecodedInst &di = b->insts[idx];
    Trap t = Trap::none();
    for (int rec = 0; rec < 4 && cp < b->code.size();) {
        auto bc = static_cast<Bc>(b->code[cp]);
        switch (bc) {
          case Bc::LdOperands:
            tmp_[0] = st_.x[b->code[cp + 1]];
            tmp_[1] = st_.x[b->code[cp + 2]];
            cp += 3;
            break;
          case Bc::Exec:
            t = execInst(st_, mmu_, b->insts[b->code[cp + 1]], fpb_, info);
            cp += 2;
            break;
          case Bc::WriteBack:
            tmp_[2] = st_.x[b->code[cp + 1]];
            cp += 2;
            break;
          case Bc::AdvancePc:
            cp += 2;
            break;
        }
        ++rec;
        if (t.pending())
            return t;
    }
    if (di.op == Op::FenceI) {
        // Never fall through into a flushed block.
        for (auto &blk : blocks_)
            blk.pc = ~0ULL;
        return t;
    }
    if (idx + 1 < b->insts.size()) {
        ftBlock_ = b;
        ftIdx_ = idx + 1;
        ftPc_ = pc + di.size;
    }
    return t;
}

} // namespace minjie::iss
