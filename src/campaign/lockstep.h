/**
 * @file
 * Engine-pair lockstep co-simulation: the campaign's unit of work.
 *
 * Two interpreter engines execute the same program one instruction at a
 * time with the full architectural state compared after every step, so
 * a disagreement is caught at the *first* diverging instruction — the
 * information the campaign needs for bucketing and shrinking, and the
 * in-repo analogue of DiffTest commit-level checking applied to pairs
 * of reference models.
 */

#ifndef MINJIE_CAMPAIGN_LOCKSTEP_H
#define MINJIE_CAMPAIGN_LOCKSTEP_H

#include <string>

#include "isa/op.h"
#include "mem/physmem.h"
#include "workload/programs.h"

namespace minjie::campaign {

/** The co-simulation engines a campaign can pit against each other. */
enum class Engine { Spike, Dromajo, Tci, Nemu };

const char *engineName(Engine e);

/** Parse an engine name; returns false on unknown names. */
bool parseEngine(const std::string &name, Engine &out);

/**
 * Deliberate semantic corruption of one side of a pair — the campaign's
 * self-test ("testing the tester", paper Section IV-C): after the
 * chosen side executes a matching instruction, its destination register
 * is XORed with @p xorMask. The campaign must catch, bucket and shrink
 * the resulting divergence. On a DiffTest job, checkJob() corrupts the
 * DUT's first committed write of @p op instead, and @p side is unused.
 */
struct BugInject
{
    bool enabled = false;
    int side = 1;            ///< 0 = engine A, 1 = engine B
    isa::Op op = isa::Op::Xor;
    uint64_t xorMask = 1;
};

/** First-divergence record for an engine-pair run. */
struct Divergence
{
    enum class Kind { None, XReg, FReg, Fflags, Pc, Memory, Timeout };

    Kind kind = Kind::None;
    uint64_t step = 0;   ///< instruction index of the divergence
    Addr pc = 0;         ///< pc of the diverging instruction
    isa::Op op = isa::Op::Illegal; ///< decoded op at that pc
    unsigned reg = 0;    ///< diverging register / sandbox byte offset
    uint64_t valA = 0;
    uint64_t valB = 0;

    bool diverged() const { return kind != Kind::None; }

    /**
     * Stable bucket key: kind, opcode class and mnemonic. The pc,
     * register index and values stay out of the key (random programs
     * place the same logical bug at arbitrary pcs/registers) but remain
     * in the record and the JSON report.
     */
    std::string signature() const;

    /** Human-readable one-line description. */
    std::string describe() const;
};

/** Outcome of one lockstep run. */
struct LockstepResult
{
    Divergence div;
    uint64_t steps = 0;  ///< instructions executed per engine
    bool exited = false; ///< both engines reached the SimCtrl exit
};

/**
 * Compare every segment of @p prog between memories @p a and @p b, a
 * page-sized chunk at a time. At the first differing byte, fill @p div
 * (kind Memory, pc = its address, reg = its offset in the segment,
 * valA/valB = the two bytes) and return false.
 */
bool compareMemory(mem::PhysMem &a, mem::PhysMem &b,
                   const workload::Program &prog, Divergence &div);

/**
 * Run @p prog on engines @p a and @p b in lockstep for at most
 * @p maxSteps instructions, comparing pc, integer/fp registers and
 * fflags after every instruction and the data sandbox at exit.
 *
 * Engines step through the virtual Interp::run(1) so NEMU executes its
 * production threaded-code path (chaining, host TLB) with
 * per-instruction commit granularity.
 */
LockstepResult runLockstep(Engine a, Engine b, const workload::Program &prog,
                           uint64_t maxSteps,
                           const BugInject *bug = nullptr);

} // namespace minjie::campaign

#endif // MINJIE_CAMPAIGN_LOCKSTEP_H
