#include "difftest/difftest.h"

#include <algorithm>
#include <cstdio>

#include "isa/decode.h"
#include "isa/disasm.h"

namespace minjie::difftest {

using namespace minjie::isa;

DiffTest::DiffTest(xs::Soc &dut, const RuleConfig &rules)
    : dut_(dut), rules_(rules)
{
    for (unsigned c = 0; c < dut.numCores(); ++c) {
        refSys_.push_back(std::make_unique<iss::System>(256));
        refs_.push_back(std::make_unique<nemu::Nemu>(
            refSys_.back()->bus, refSys_.back()->dram, c,
            iss::DRAM_BASE));
        // One call per commit group, probes in program order; the
        // checker is per-probe.
        dut.core(c).setCommitBatchHook(
            [this, c](const CommitProbe *p, unsigned n) {
                for (unsigned i = 0; i < n; ++i)
                    onCommit(c, p[i]);
            });
    }
    // The Global Memory only matters when another hart can store: a
    // single-core run keeps no GM state, and a load that disagrees with
    // the REF is always a mismatch.
    if (dut.numCores() > 1) {
        globalMem_ = std::make_unique<GlobalMemory>();
        for (unsigned c = 0; c < dut.numCores(); ++c)
            dut.core(c).setSpecStoreHook(
                [this](const StoreProbe &p) { globalMem_->onStore(p); });
    }
    dut.mem().setTxnLog([this](const uarch::Transaction &t) {
        scoreboard_.onTransaction(t);
    });
}

DiffTest::~DiffTest() = default;

void
DiffTest::loadRefMemory(Addr addr, const void *data, size_t len)
{
    for (auto &sys : refSys_)
        sys->dram.loadSharing(dut_.system().dram, addr, data, len);
}

void
DiffTest::resetRefs(Addr entry)
{
    for (unsigned c = 0; c < refs_.size(); ++c) {
        refs_[c]->state().reset(entry, c);
        refs_[c]->flushUopCache();
    }
}

void
DiffTest::fail(HartId hart, const std::string &why)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[hart %u] ", hart);
    failures_.push_back(buf + why);
    if (failures_.size() == 1) {
        if (obsTrace_) {
            // Freeze the post-mortem window: the Divergence marker goes
            // in first so the window always contains it, then the
            // last-K events (faulty commit included) are copied out.
            obsTrace_->record(obs::Ev::Divergence,
                              dut_.core(hart).now(),
                              dut_.core(hart).oracleState().pc,
                              stats_.commitsChecked, 0,
                              static_cast<uint8_t>(hart));
            divWindow_ = obsTrace_->lastK(obsWindowK_);
        }
        if (onMismatch_)
            onMismatch_(failures_.front());
    }
}

void
DiffTest::report(DivergenceReport::Kind kind, HartId hart,
                 const CommitProbe &probe, const char *rule, unsigned reg,
                 uint64_t dutVal, uint64_t refVal)
{
    if (div_.valid)
        return; // keep the first divergence only
    div_.valid = true;
    div_.kind = kind;
    div_.hart = hart;
    div_.pc = probe.pc;
    div_.inst = probe.inst;
    div_.reg = reg;
    div_.dutVal = dutVal;
    div_.refVal = refVal;
    div_.rule = rule;
}

std::string
DivergenceReport::signature() const
{
    if (!valid)
        return "none";
    const char *kindName = "none";
    switch (kind) {
      case Kind::Pc: kindName = "pc"; break;
      case Kind::Trap: kindName = "trap"; break;
      case Kind::Rd: kindName = "rd"; break;
      case Kind::FpRd: kindName = "fprd"; break;
      case Kind::Csr: kindName = "csr"; break;
      case Kind::Rule: kindName = "rule"; break;
      case Kind::None: break;
    }
    auto di = decode(inst);
    std::string sig = std::string(kindName) + ":" + opClassName(di.op) +
                      ":" + opName(di.op);
    if (!rule.empty())
        sig += ":" + rule;
    return sig;
}

void
DiffTest::onCommit(HartId hart, const CommitProbe &probe)
{
    if (!ok())
        return; // already aborted
    ++stats_.commitsChecked;
    trace_[traceHead_] = probe;
    traceHead_ = (traceHead_ + 1) % TRACE_DEPTH;
    if (traceCount_ < TRACE_DEPTH)
        ++traceCount_;

    auto &ref = *refs_[hart];
    auto &refSt = ref.state();
    char buf[192];

    // Checker: the commit stream must be contiguous in the REF's view.
    if (refSt.pc != probe.pc) {
        std::snprintf(buf, sizeof(buf),
                      "pc divergence: dut commits 0x%llx, ref at 0x%llx",
                      static_cast<unsigned long long>(probe.pc),
                      static_cast<unsigned long long>(refSt.pc));
        report(DivergenceReport::Kind::Pc, hart, probe, "pc-check", 0,
               probe.pc, refSt.pc);
        fail(hart, buf);
        return;
    }

    // ---- diff-rule: MMIO accesses are trusted from the DUT ----
    if (probe.skip) {
        if (!rules_.skipMmio) {
            report(DivergenceReport::Kind::Rule, hart, probe,
                   "mmio-skip-disabled");
            fail(hart, "mmio access with skip rule disabled");
            return;
        }
        ++stats_.mmioSkips;
        unsigned size = isCompressed(probe.inst) ? 2 : 4;
        refSt.pc += size;
        if (probe.rdWritten)
            refSt.setX(probe.rd, probe.rdValue);
        if (probe.fpWritten)
            refSt.setF(probe.rd, probe.rdValue);
        ++refSt.instret;
        ++refSt.csr.minstret;
        ++refSt.csr.mcycle;
        ref.flushUopCache(); // pc moved under the interpreter
        return;
    }

    // ---- diff-rule: forced asynchronous interrupt ----
    if (probe.interrupt) {
        if (!rules_.forcedInterrupt) {
            report(DivergenceReport::Kind::Rule, hart, probe,
                   "interrupt-rule-disabled");
            fail(hart, "interrupt with forced-interrupt rule disabled");
            return;
        }
        ++stats_.forcedInterrupts;
        ref.raiseInterrupt(static_cast<Irq>(probe.trapCause & 63));
        ref.flushUopCache();
        return;
    }

    // ---- diff-rule: the DUT may page-fault where the REF does not
    // (speculative translation, Figure 3); force the REF to take the
    // same trap, guarding against unbounded repetition ----
    if (probe.trap &&
        isPageFault(static_cast<Exc>(probe.trapCause)) &&
        rules_.pageFault) {
        unsigned &count = forcedAtPc_[probe.pc];
        if (++count > rules_.maxForcedPerPc) {
            std::snprintf(buf, sizeof(buf),
                          "page-fault rule: forced %u times at pc 0x%llx"
                          " (suspected livelock / real bug)",
                          count,
                          static_cast<unsigned long long>(probe.pc));
            report(DivergenceReport::Kind::Rule, hart, probe,
                   "page-fault-livelock");
            fail(hart, buf);
            return;
        }
        ++stats_.forcedPageFaults;
        iss::takeTrap(refSt,
                      Trap::make(static_cast<Exc>(probe.trapCause),
                                 probe.memVaddr ? probe.memVaddr
                                                : probe.pc),
                      probe.pc);
        ++refSt.instret;
        ++refSt.csr.minstret;
        ++refSt.csr.mcycle;
        ref.flushUopCache();
        return;
    }

    // ---- diff-rule: forced SC failure ----
    if (probe.scFailed) {
        unsigned &count = forcedAtPc_[probe.pc];
        if (++count > rules_.maxForcedPerPc * 4) {
            report(DivergenceReport::Kind::Rule, hart, probe,
                   "sc-failure-livelock");
            fail(hart, "sc-failure rule repeated excessively");
            return;
        }
        ++stats_.forcedScFailures;
        refSt.resValid = false; // the REF's SC now fails naturally
    }

    // ---- step the REF one instruction ----
    iss::ExecInfo info;
    Trap t = ref.step(&info);

    // Trap equivalence.
    if (probe.trap != t.pending() ||
        (probe.trap &&
         probe.trapCause != static_cast<uint64_t>(t.cause))) {
        std::snprintf(buf, sizeof(buf),
                      "trap divergence at pc 0x%llx: dut %s cause %llu,"
                      " ref %s cause %llu",
                      static_cast<unsigned long long>(probe.pc),
                      probe.trap ? "trap" : "no-trap",
                      static_cast<unsigned long long>(probe.trapCause),
                      t.pending() ? "trap" : "no-trap",
                      static_cast<unsigned long long>(t.cause));
        report(DivergenceReport::Kind::Trap, hart, probe, "trap-check",
               0, probe.trapCause, static_cast<uint64_t>(t.cause));
        fail(hart, buf);
        return;
    }

    // Destination-register equivalence.
    if (probe.rdWritten && refSt.x[probe.rd] != probe.rdValue) {
        bool patched = false;
        if (probe.isLoad && globalMem_) {
            // ---- diff-rule: the value may come from another hart's
            // store that the single-core REF cannot see. The Global
            // Memory records stores at their oracle-time execution; a
            // value already in shared memory is accepted too. ----
            uint64_t current = 0;
            bool inShared =
                dut_.system().dram.read(probe.memPaddr, probe.memSize,
                                        current) &&
                current == probe.memData;
            if (inShared ||
                globalMem_->couldHaveValue(probe.memPaddr, probe.memSize,
                                           probe.memData)) {
                refSys_[hart]->dram.write(probe.memPaddr, probe.memSize,
                                          probe.memData);
                refSt.setX(probe.rd, probe.rdValue);
                ++stats_.globalMemoryPatches;
                patched = true;
            }
        }
        if (!patched) {
            report(DivergenceReport::Kind::Rd, hart, probe, "rd-check",
                   probe.rd, probe.rdValue, refSt.x[probe.rd]);
            auto di = decode(probe.inst);
            std::snprintf(
                buf, sizeof(buf),
                "rd mismatch at pc 0x%llx (%s): x%u dut=0x%llx"
                " ref=0x%llx",
                static_cast<unsigned long long>(probe.pc),
                disasm(di).c_str(), probe.rd,
                static_cast<unsigned long long>(probe.rdValue),
                static_cast<unsigned long long>(refSt.x[probe.rd]));
            fail(hart, buf);
            return;
        }
    }
    if (probe.fpWritten && refSt.f[probe.rd] != probe.rdValue) {
        report(DivergenceReport::Kind::FpRd, hart, probe, "fprd-check",
               probe.rd, probe.rdValue, refSt.f[probe.rd]);
        std::snprintf(buf, sizeof(buf),
                      "fp rd mismatch at pc 0x%llx: f%u dut=0x%llx"
                      " ref=0x%llx",
                      static_cast<unsigned long long>(probe.pc), probe.rd,
                      static_cast<unsigned long long>(probe.rdValue),
                      static_cast<unsigned long long>(
                          refSt.f[probe.rd]));
        fail(hart, buf);
        return;
    }

    // CSR rule evaluation on serializing instructions (the only points
    // where the DUT's committed CSR view is architecturally settled).
    if (probe.trap || triggersCsrCheck(probe.inst)) {
        ++stats_.csrChecks;
        CsrProbe dutCsr;
        dut_.core(hart).fillCsrProbe(dutCsr);
        // The REF's instret trails the oracle's by the in-flight
        // window; compare consistently by overriding with the REF view
        // only when the DUT is ahead (never behind).
        std::vector<std::string> violations;
        isa::Priv priv = refSt.priv;
        if (!checkCsrs(dutCsr, refSt.csr, priv, violations)) {
            for (const auto &v : violations) {
                report(DivergenceReport::Kind::Csr, hart, probe,
                       "csr-rule");
                fail(hart, v);
            }
        }
    }
}

std::vector<std::string>
DiffTest::recentCommitTrace() const
{
    std::vector<std::string> out;
    size_t start = (traceHead_ + TRACE_DEPTH - traceCount_) % TRACE_DEPTH;
    char buf[160];
    for (size_t i = 0; i < traceCount_; ++i) {
        const CommitProbe &p = trace_[(start + i) % TRACE_DEPTH];
        auto di = decode(p.inst);
        std::snprintf(buf, sizeof(buf),
                      "[hart %u] pc=0x%010llx %-28s%s%s", p.hart,
                      static_cast<unsigned long long>(p.pc),
                      disasm(di).c_str(), p.skip ? " (mmio)" : "",
                      p.trap ? " (trap)" : "");
        out.push_back(buf);
    }
    return out;
}

void
DiffTest::loadProgram(const workload::Program &prog)
{
    dut_.loadProgram(prog);
    for (const auto &seg : prog.segments)
        loadRefMemory(seg.base, seg.bytes.data(), seg.bytes.size());
    resetRefs(prog.entry);
}

xs::Soc::RunResult
DiffTest::run(Cycle maxCycles)
{
    return dut_.runWhile(maxCycles, [this](Cycle) { return ok(); });
}

} // namespace minjie::difftest
