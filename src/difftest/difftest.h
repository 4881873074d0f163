/**
 * @file
 * DiffTest: the DRAV co-simulation framework (paper Section III-B).
 *
 * One REF (a NEMU instance with private memory) per DUT core runs in
 * lock-step with the DUT's commit stream, synchronized by diff-rules:
 *
 *  - MMIO skip rule       — device accesses are trusted from the DUT and
 *                           replayed into the REF architecturally;
 *  - page-fault rule      — the DUT may raise a page fault the REF does
 *                           not observe (speculative/stale TLB, Fig. 3);
 *                           the REF is forced to take the same trap, and
 *                           repeated forcing at one pc is rejected;
 *  - SC-failure rule      — a store-conditional may fail on the DUT for
 *                           micro-architectural reasons; the REF's
 *                           reservation is broken so it fails too (with
 *                           the same repeat guard);
 *  - interrupt rule       — asynchronous interrupts are taken when the
 *                           DUT says so (the Dromajo approach);
 *  - Global-Memory rule   — on a load-value mismatch in multi-core
 *                           runs, a value another hart provably stored
 *                           is accepted and patched into the REF;
 *  - ~120 CSR field rules — see csr_rules.h;
 *  - permission scoreboard— coherence transactions are checked against
 *                           the single-writer invariant.
 *
 * Rules can be enabled/disabled at runtime ("reconfigure the reference
 * model on-the-fly", Section III-B1).
 */

#ifndef MINJIE_DIFFTEST_DIFFTEST_H
#define MINJIE_DIFFTEST_DIFFTEST_H

#include <map>
#include <memory>
#include <string>

#include "difftest/csr_rules.h"
#include "difftest/global_memory.h"
#include "difftest/scoreboard.h"
#include "nemu/nemu.h"
#include "obs/trace.h"
#include "xiangshan/soc.h"

namespace minjie::difftest {

/** Which diff-rules are active. */
struct RuleConfig
{
    bool skipMmio = true;
    bool pageFault = true;
    bool forcedInterrupt = true;
    unsigned maxForcedPerPc = 8; ///< repeat guard (Section III-B2c)
};

/**
 * Machine-readable record of the first divergence. Campaign tooling
 * buckets failures by signature() instead of parsing the log text.
 */
struct DivergenceReport
{
    enum class Kind { None, Pc, Trap, Rd, FpRd, Csr, Rule };

    bool valid = false;
    Kind kind = Kind::None;
    HartId hart = 0;
    Addr pc = 0;
    uint32_t inst = 0;   ///< raw encoding at the diverging commit
    unsigned reg = 0;    ///< diverging x/f register (Rd/FpRd kinds)
    uint64_t dutVal = 0;
    uint64_t refVal = 0;
    std::string rule;    ///< checker or diff-rule that flagged it

    /**
     * Stable bucket key: kind, opcode class and mnemonic (the pc and
     * raw values stay out of the key so the same logical bug groups
     * across different random programs; they remain in the record).
     */
    std::string signature() const;
};

/** Counters of rule applications (visible in reports and tests). */
struct DiffStats
{
    uint64_t commitsChecked = 0;
    uint64_t mmioSkips = 0;
    uint64_t forcedPageFaults = 0;
    uint64_t forcedScFailures = 0;
    uint64_t forcedInterrupts = 0;
    uint64_t globalMemoryPatches = 0;
    uint64_t csrChecks = 0;
};

class DiffTest
{
  public:
    /**
     * Attach to @p dut: hooks every core's commit and store probes and
     * builds one REF per core. The DUT's programs must already be
     * loaded into its memory; call loadRef() with the same program
     * data to initialize the REF memories.
     */
    explicit DiffTest(xs::Soc &dut, const RuleConfig &rules = {});
    ~DiffTest();

    /**
     * Load @p len bytes at @p addr into every REF's memory. A whole
     * page the DUT's DRAM maps from these same bytes is mapped too,
     * sharing the DUT's owner (PhysMem::loadSharing); any other page
     * is copied, so @p data need not outlive the call.
     */
    void loadRefMemory(Addr addr, const void *data, size_t len);

    /** Reset every REF to @p entry (mirror of Soc::setEntry). */
    void resetRefs(Addr entry);

    /** Load @p prog into the DUT's memory and every REF's, and reset
     *  the harts of both to its entry. */
    void loadProgram(const workload::Program &prog);

    /** True while no mismatch has been detected. */
    bool ok() const { return failures_.empty(); }

    /** Human-readable mismatch log (empty when ok). */
    const std::vector<std::string> &failures() const { return failures_; }

    const DiffStats &stats() const { return stats_; }

    /** First divergence in structured form (valid once !ok()). */
    const DivergenceReport &divergence() const { return div_; }
    const PermissionScoreboard &scoreboard() const { return scoreboard_; }

    /** Callback invoked on the first mismatch (LightSSS hooks here). */
    void setOnMismatch(std::function<void(const std::string &)> fn)
    {
        onMismatch_ = std::move(fn);
    }

    /**
     * Run the DUT under co-simulation until completion or a mismatch.
     * @return cycles simulated, and whether every core drained (false
     *         on a mismatch or when @p maxCycles ran out)
     */
    xs::Soc::RunResult run(Cycle maxCycles);

    /** Access a REF (e.g. for final-state assertions in tests). */
    nemu::Nemu &ref(HartId hart) { return *refs_[hart]; }
    /** A REF's memory (tests, page statistics). */
    mem::PhysMem &refDram(HartId hart) { return refSys_[hart]->dram; }

    /**
     * The last N committed instructions before the mismatch (our
     * analogue of the paper's Waveform Terminator: the trace tail a
     * developer inspects first), rendered as text.
     */
    std::vector<std::string> recentCommitTrace() const;

    /**
     * Attach an obs tracer (typically also attached to the DUT core):
     * on the first mismatch a Divergence event is recorded and the
     * tracer's last-K window is frozen into divergenceWindow().
     * @param lastK  events to keep alongside the DivergenceReport
     */
    void attachTrace(obs::TraceBuffer *trace, size_t lastK = 256)
    {
        obsTrace_ = trace;
        obsWindowK_ = lastK;
    }

    /** Trace window captured at the first mismatch (empty when ok). */
    const std::vector<obs::TraceEvent> &divergenceWindow() const
    {
        return divWindow_;
    }

  private:
    void onCommit(HartId hart, const CommitProbe &probe);
    void fail(HartId hart, const std::string &why);

    /** Record the structured report for the first failure only. */
    void report(DivergenceReport::Kind kind, HartId hart,
                const CommitProbe &probe, const char *rule,
                unsigned reg = 0, uint64_t dutVal = 0, uint64_t refVal = 0);

    xs::Soc &dut_;
    RuleConfig rules_;
    std::vector<std::unique_ptr<iss::System>> refSys_;
    std::vector<std::unique_ptr<nemu::Nemu>> refs_;
    std::unique_ptr<GlobalMemory> globalMem_; ///< multi-core only
    PermissionScoreboard scoreboard_;
    DiffStats stats_;
    DivergenceReport div_;
    std::vector<std::string> failures_;
    std::function<void(const std::string &)> onMismatch_;
    obs::TraceBuffer *obsTrace_ = nullptr;
    size_t obsWindowK_ = 256;
    std::vector<obs::TraceEvent> divWindow_;
    std::map<Addr, unsigned> forcedAtPc_; ///< repeat guard, cold path

    static constexpr size_t TRACE_DEPTH = 64;
    std::vector<CommitProbe> trace_ = std::vector<CommitProbe>(TRACE_DEPTH);
    size_t traceHead_ = 0;
    size_t traceCount_ = 0;
};

} // namespace minjie::difftest

#endif // MINJIE_DIFFTEST_DIFFTEST_H
