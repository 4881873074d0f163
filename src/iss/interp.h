/**
 * @file
 * Functional interpreter engines.
 *
 * Three baseline engines reproduce the architectural differences of the
 * interpreters compared in the paper's Figure 8 (we implement the
 * *architectures*, not the tools themselves):
 *
 *  - SpikeInterp   — decoded-instruction software cache (direct-mapped,
 *                    configurable entries, default 16384 as selected in
 *                    the paper) + switch execution + soft-float;
 *  - DromajoInterp — fetch + full decode on every instruction, no cache,
 *                    soft-float;
 *  - TciInterp     — guest basic blocks translated once per block entry
 *                    into a multi-uop bytecode stream, executed by
 *                    fall-through and interpreted op-by-op (the QEMU-TCI
 *                    execution model), soft-float.
 *
 * The fast NEMU engine lives in src/nemu/.
 */

#ifndef MINJIE_ISS_INTERP_H
#define MINJIE_ISS_INTERP_H

#include <functional>
#include <memory>
#include <vector>

#include "common/zeroed_array.h"
#include "isa/decode.h"
#include "iss/exec.h"

namespace minjie::iss {

/** Result of running an interpreter for a bounded number of steps. */
struct RunResult
{
    InstCount executed = 0;
    bool halted = false;  ///< halt predicate fired (e.g. SimCtrl exit)
    bool trapped = false; ///< at least one trap was taken during the run
};

/**
 * Base class owning the architectural state, the MMU and the step loop.
 * Engines override stepOnce().
 */
class Interp
{
  public:
    Interp(mem::MemPort &mem, HartId hart, Addr entry,
           fp::FpBackend fpb)
        : mem_(mem), mmu_(st_, mem), fpb_(fpb)
    {
        st_.reset(entry, hart);
    }
    virtual ~Interp() = default;

    ArchState &state() { return st_; }
    const ArchState &state() const { return st_; }
    Mmu &mmu() { return mmu_; }

    /** Optional halt predicate polled between instructions. */
    void setHaltFn(std::function<bool()> fn) { haltFn_ = std::move(fn); }

    /**
     * Execute one instruction (committing a trap redirect if raised).
     * @p info receives probe-visible effects when non-null.
     * @return the trap taken, or none.
     */
    isa::Trap
    step(ExecInfo *info = nullptr)
    {
        isa::Trap t = stepOnce(info);
        if (t.pending())
            takeTrap(st_, t, st_.pc);
        ++st_.instret;
        ++st_.csr.minstret;
        ++st_.csr.mcycle;
        return t;
    }

    /**
     * Deliver interrupt @p irq now (DiffTest uses this to force the REF
     * to take the same interrupt as the DUT). Virtual so engines caching
     * translations can drop them across the privilege change.
     */
    virtual void raiseInterrupt(isa::Irq irq) { takeInterrupt(st_, irq); }

    /**
     * Run up to @p maxInsts instructions or until the halt predicate.
     * Virtual: NEMU overrides with its threaded-code engine, so run(1)
     * through an Interp pointer still drives the chained fast path with
     * per-instruction commit granularity (lockstep co-simulation).
     */
    virtual RunResult
    run(InstCount maxInsts)
    {
        RunResult r;
        while (r.executed < maxInsts) {
            if (step().pending())
                r.trapped = true;
            ++r.executed;
            if (haltFn_ && haltFn_()) {
                r.halted = true;
                break;
            }
        }
        return r;
    }

  protected:
    /** Engine-specific fetch/decode/execute of one instruction. */
    virtual isa::Trap stepOnce(ExecInfo *info) = 0;

    ArchState st_;
    mem::MemPort &mem_;
    Mmu mmu_;
    fp::FpBackend fpb_;
    std::function<bool()> haltFn_;
};

/** Spike-proxy: direct-mapped decoded-instruction cache + soft-float. */
class SpikeInterp : public Interp
{
  public:
    SpikeInterp(mem::MemPort &mem, HartId hart, Addr entry,
                unsigned cacheEntries = 16384)
        : Interp(mem, hart, entry, fp::FpBackend::Soft),
          mask_(cacheEntries - 1), cache_(cacheEntries)
    {
    }

    uint64_t decodeCacheHits() const { return hits_; }
    uint64_t decodeCacheMisses() const { return misses_; }

  protected:
    isa::Trap stepOnce(ExecInfo *info) override;

  private:
    /** tag = pc + 1: an all-zero entry is empty, even at pc 0 (tag 0
     *  would name pc ~0, which is odd and never fetched). */
    struct Entry
    {
        Addr tag = 0;
        isa::DecodedInst di;
    };
    uint64_t mask_;
    ZeroedArray<Entry> cache_;
    uint64_t hits_ = 0, misses_ = 0;
};

/** Dromajo-proxy: no decode cache at all. */
class DromajoInterp : public Interp
{
  public:
    DromajoInterp(mem::MemPort &mem, HartId hart, Addr entry)
        : Interp(mem, hart, entry, fp::FpBackend::Soft)
    {
    }

  protected:
    isa::Trap stepOnce(ExecInfo *info) override;
};

/**
 * QEMU-TCI proxy: a basic block is translated where execution enters
 * it (a branch or jump target, a trap vector, the first pc), each guest
 * instruction into several bytecode micro-ops that a nested dispatcher
 * interprets one by one, reading operands from the byte stream.
 * Straight-line execution falls through the block it is in, record by
 * record, without a cache lookup. Blocks end at control, system, CSR
 * and fence instructions, so a privilege or satp change never falls
 * through.
 */
class TciInterp : public Interp
{
  public:
    TciInterp(mem::MemPort &mem, HartId hart, Addr entry)
        : Interp(mem, hart, entry, fp::FpBackend::Soft)
    {
    }

    /** Blocks translated so far: one per entry missing in the cache. */
    uint64_t blocksTranslated() const { return translated_; }

    void
    raiseInterrupt(isa::Irq irq) override
    {
        ftBlock_ = nullptr;
        Interp::raiseInterrupt(irq);
    }

  protected:
    isa::Trap stepOnce(ExecInfo *info) override;

  private:
    // Bytecode ops: a guest instruction expands to LD_OPERANDS,
    // EXEC, WRITE_BACK, ADVANCE_PC records, mirroring how TCG lowers
    // one guest op into several TCG ops.
    enum class Bc : uint8_t { LdOperands, Exec, WriteBack, AdvancePc };

    struct Block
    {
        Addr pc = ~0ULL;
        std::vector<uint8_t> code;
        std::vector<isa::DecodedInst> insts;
    };

    static constexpr unsigned BLOCK_CACHE = 4096;
    Block *lookupBlock(Addr pc, isa::Trap &trap);

    std::vector<Block> blocks_ = std::vector<Block>(BLOCK_CACHE);
    // Scratch "TCG registers" the bytecode moves operands through.
    uint64_t tmp_[4] = {};
    // Fall-through state: the block being executed, its next record
    // and the pc that record is for. Cleared by traps and fence.i.
    Block *ftBlock_ = nullptr;
    size_t ftIdx_ = 0;
    Addr ftPc_ = 0;
    uint64_t translated_ = 0;
};

} // namespace minjie::iss

#endif // MINJIE_ISS_INTERP_H
