/**
 * @file
 * The RISC-V architectural state: exactly the state space S_P the DRAV
 * formalism compares between DUT and REF (paper Section III-A).
 */

#ifndef MINJIE_ISS_ARCH_STATE_H
#define MINJIE_ISS_ARCH_STATE_H

#include <cstdint>

#include "common/types.h"
#include "iss/csrfile.h"
#include "isa/trap.h"

namespace minjie::iss {

/** Complete per-hart architectural state. */
struct ArchState
{
    Addr pc = 0;
    RegVal x[32] = {};   ///< integer registers; x[0] pinned to zero
    uint64_t f[32] = {}; ///< fp registers (raw bit patterns, NaN-boxed)
    isa::Priv priv = isa::Priv::M;
    CsrFile csr;

    // LR/SC reservation.
    bool resValid = false;
    Addr resAddr = 0;

    InstCount instret = 0;

    void
    reset(Addr entry, uint64_t hartid)
    {
        pc = entry;
        for (auto &r : x)
            r = 0;
        for (auto &r : f)
            r = 0;
        priv = isa::Priv::M;
        csr.reset(hartid);
        resValid = false;
        instret = 0;
    }

    /** Write an integer register, keeping x0 hardwired to zero. */
    void
    setX(unsigned rd, RegVal val)
    {
        x[rd] = val;
        x[0] = 0;
    }

    /**
     * Write an fp register (raw NaN-boxed bit pattern). The single
     * sanctioned store path into f[] (lint MJ-PRB2-001): every value
     * DiffTest compares flows through here, so probes and future
     * write-tracing hook one place. Callers still mark mstatus.FS
     * dirty via CsrFile::setFsDirty().
     */
    void
    setF(unsigned rd, uint64_t bits)
    {
        f[rd] = bits;
    }
};

/**
 * Redirect @p st into the trap handler for @p trap raised at @p epc.
 * Handles M/S delegation, cause/tval/epc bookkeeping, and the status
 * stack (xPIE/xPP).
 */
void takeTrap(ArchState &st, const isa::Trap &trap, Addr epc);

/** Enter the interrupt handler for @p irq (mcause interrupt bit set). */
void takeInterrupt(ArchState &st, isa::Irq irq);

/**
 * Highest-priority interrupt currently deliverable to @p st, or zero.
 * Deliverability follows mstatus.MIE/SIE, mideleg and the privilege
 * level; the result is an Irq cause or ~0 when none is pending.
 */
uint64_t pendingInterrupt(const ArchState &st);

} // namespace minjie::iss

#endif // MINJIE_ISS_ARCH_STATE_H
