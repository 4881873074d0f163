/**
 * @file
 * Machine/supervisor CSR file with WARL write legalization.
 */

#ifndef MINJIE_ISS_CSRFILE_H
#define MINJIE_ISS_CSRFILE_H

#include <cstdint>

#include "isa/csr.h"
#include "isa/trap.h"

namespace minjie::iss {

/**
 * Storage and access legality for the implemented CSR subset.
 *
 * The ~120 machine-CSR diff-rules of the paper (Section III-B2) are
 * expressed over these fields; see difftest/csr_rules.cpp for the rule
 * table that captures which fields may legally diverge between DUT and
 * REF.
 */
class CsrFile
{
  public:
    CsrFile() { reset(0); }

    /** Reset to the architectural power-on state for hart @p hartid. */
    void reset(uint64_t hartid);

    /**
     * Read CSR @p addr as privilege @p priv.
     * @return false if the access is illegal (raise IllegalInst).
     */
    bool read(uint16_t addr, isa::Priv priv, uint64_t &val) const;

    /** Write CSR @p addr; applies WARL legalization. */
    bool write(uint16_t addr, isa::Priv priv, uint64_t val);

    // Direct named access for the executor / trap logic / probes.
    uint64_t mstatus = 0;
    uint64_t misa = 0;
    uint64_t medeleg = 0;
    uint64_t mideleg = 0;
    uint64_t mie = 0;
    uint64_t mtvec = 0;
    uint64_t mcounteren = 0;
    uint64_t mscratch = 0;
    uint64_t mepc = 0;
    uint64_t mcause = 0;
    uint64_t mtval = 0;
    uint64_t mip = 0;
    uint64_t mcycle = 0;
    uint64_t minstret = 0;
    uint64_t mhartid = 0;
    uint64_t stvec = 0;
    uint64_t scounteren = 0;
    uint64_t sscratch = 0;
    uint64_t sepc = 0;
    uint64_t scause = 0;
    uint64_t stval = 0;
    uint64_t satp = 0;
    uint64_t pmpcfg0 = 0;
    uint64_t pmpaddr0 = 0;
    uint8_t fflags = 0;
    uint8_t frm = 0;

    /** External time source (CLINT mtime); null reads as 0. */
    const uint64_t *timeSrc = nullptr;

    /** Set the FS field dirty after any fp register write. */
    void
    setFsDirty()
    {
        mstatus |= isa::MSTATUS_FS | isa::MSTATUS_SD;
    }

    /**
     * OR fp exception flags into fflags: the sanctioned accumulation
     * path for the executors (lint MJ-PRB2-001). fflags is pure status
     * — every bit is writable — so no WARL legalization applies.
     */
    void
    accumulateFflags(uint8_t flags)
    {
        fflags |= flags;
    }

    /**
     * Install an mstatus image produced by trap entry / trap return
     * sequencing (lint MJ-PRB2-001). The value must already be legal:
     * callers edit individual fields of the current image, they do
     * not launder arbitrary writes past write()'s legalization.
     */
    void
    setMstatusForTrap(uint64_t value)
    {
        mstatus = value;
    }

    bool fpEnabled() const { return (mstatus & isa::MSTATUS_FS) != 0; }
};

} // namespace minjie::iss

#endif // MINJIE_ISS_CSRFILE_H
