/**
 * @file
 * Machine/supervisor CSR diff-rules (paper Section III-B2).
 *
 * The paper reports devising ~120 rules from the RISC-V privileged
 * specification, mostly governing which CSR fields must match between
 * DUT and REF exactly, which may legally diverge (and the REF then
 * adopts the DUT value), and which only need to agree under a mask.
 * This table reifies that rule set: one entry per architected field.
 */

#ifndef MINJIE_DIFFTEST_CSR_RULES_H
#define MINJIE_DIFFTEST_CSR_RULES_H

#include <string>
#include <vector>

#include "difftest/probes.h"
#include "isa/decode.h"
#include "iss/csrfile.h"

namespace minjie::difftest {

/** How a CSR field participates in the equivalence check. */
enum class CsrPolicy : uint8_t {
    Exact,    ///< field must match bit-for-bit
    TrustDut, ///< micro-architecture-dependent: REF adopts DUT value
    Ignore,   ///< WPRI / unimplemented: never compared
};

/** One field-granular diff-rule. */
struct CsrFieldRule
{
    const char *csr;    ///< CSR name
    const char *field;  ///< field name
    uint64_t mask;      ///< bits covered by this rule
    CsrPolicy policy;
    /** Accessor for the field's register in the probe / CSR file. */
    uint64_t CsrProbe::*probeMember;
    /** >= 0: rule covers hpmcounter[idx] / hpmevent[idx] instead. */
    int hpmIdx = -1;
    bool hpmIsEvent = false;
};

/** The full rule table (built once; ~120 entries). */
const std::vector<CsrFieldRule> &csrRules();

/**
 * Check @p dut (the DUT's committed CSR view) against @p ref.
 * TrustDut fields are copied into @p ref. On a violated Exact rule the
 * offending rule is appended to @p violations.
 * @return true when no rule is violated.
 */
bool checkCsrs(const CsrProbe &dut, iss::CsrFile &ref, isa::Priv &refPriv,
               std::vector<std::string> &violations);

/**
 * Does committing @p inst settle the CSR view, i.e. is it a CSR or
 * system instruction? Equal to isCsr || isSystem of decode(@p inst),
 * but only words with the SYSTEM major opcode (and c.ebreak) are
 * decoded, so DiffTest can ask on every commit.
 */
inline bool
triggersCsrCheck(uint32_t inst)
{
    if (isa::isCompressed(inst) ? (inst & 0xffff) != 0x9002
                                : (inst & 0x7f) != 0x73)
        return false;
    isa::Op op = isa::decode(inst).op;
    return isa::isCsr(op) || isa::isSystem(op);
}

/** Snapshot @p ref into a probe for rule evaluation. */
CsrProbe snapshotCsrs(const iss::CsrFile &ref, isa::Priv priv);

} // namespace minjie::difftest

#endif // MINJIE_DIFFTEST_CSR_RULES_H
