/**
 * The Figure 3 diff-rule end-to-end: the DUT raises a page fault the
 * architectural REF does not observe (stale/speculative TLB); the rule
 * forces the REF to take the same trap, and the repeat guard rejects
 * livelocks.
 */

#include <gtest/gtest.h>

#include "difftest/difftest.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::difftest;
namespace wl = minjie::workload;

/** A program with a trap handler that simply retries the faulting
 *  instruction (the Linux behaviour the paper describes: the page
 *  fault handler finds the PTE fine and returns). */
wl::Program
retryHandlerProgram(uint64_t iterations = 50)
{
    wl::Layout layout;
    wl::Asm a(layout.codeBase);

    wl::Label handler = a.newLabel();
    a.li(wl::t0, 0x80000100);
    a.csr(isa::Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);

    // Some loads for the injection to hit.
    a.li(wl::s0, layout.dataBase);
    a.li(wl::s2, iterations);
    wl::Label loop = a.boundLabel();
    a.load(isa::Op::Ld, wl::t1, 0, wl::s0);
    a.rtype(isa::Op::Add, wl::s6, wl::s6, wl::t1);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.branch(isa::Op::Bne, wl::s2, wl::zero, loop);
    a.exit(0);

    while (a.here() < 0x80000100)
        a.nop();
    a.bind(handler);
    // mepc already points at the faulting load: just return to retry.
    a.itype(isa::Op::Mret, 0, 0, 0);

    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    prog.segments.push_back({layout.dataBase,
                             std::vector<uint8_t>(64, 7)});
    return prog;
}

TEST(PageFaultRule, ForcedFaultReconciled)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(retryHandlerProgram());

    soc.core(0).injectSpuriousPageFault();
    dt.run(1'000'000);

    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_EQ(dt.stats().forcedPageFaults, 1u);
    EXPECT_EQ(soc.system().simctrl.exitCode(), 0u);
}

TEST(PageFaultRule, DisabledRuleFlagsDivergence)
{
    xs::Soc soc(xs::CoreConfig::nh());
    RuleConfig rules;
    rules.pageFault = false;
    DiffTest dt(soc, rules);
    dt.loadProgram(retryHandlerProgram());

    soc.core(0).injectSpuriousPageFault();
    dt.run(1'000'000);

    ASSERT_FALSE(dt.ok());
    EXPECT_NE(dt.failures().front().find("trap divergence"),
              std::string::npos)
        << dt.failures().front();
}

TEST(PageFaultRule, RepeatGuardRejectsLivelock)
{
    // A handler that never fixes anything: the DUT faults at the same
    // pc forever. The rule must stop trusting it (Section III-B2c:
    // "tracked and asserted not to repeatedly occur").
    xs::Soc soc(xs::CoreConfig::nh());
    RuleConfig rules;
    rules.maxForcedPerPc = 4;
    DiffTest dt(soc, rules);
    // A long-running loop so injections always find a load in flight.
    dt.loadProgram(retryHandlerProgram(1'000'000));

    for (int i = 0; i < 10 && dt.ok(); ++i) {
        soc.core(0).injectSpuriousPageFault();
        dt.run(2'000);
    }
    ASSERT_FALSE(dt.ok());
    EXPECT_NE(dt.failures().front().find("page-fault rule"),
              std::string::npos)
        << dt.failures().front();
}

TEST(PageFaultRule, CommitTraceAvailableAtFailure)
{
    // The Waveform-Terminator-style tail: after a mismatch the last
    // commits are available for inspection.
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    dt.loadProgram(wl::coremarkProxy(50));
    soc.core(0).injectLoadFault(0xff00);
    dt.run(10'000'000);
    ASSERT_FALSE(dt.ok());
    auto trace = dt.recentCommitTrace();
    ASSERT_GE(trace.size(), 10u);
    // Entries render pc and a disassembled mnemonic.
    EXPECT_NE(trace.back().find("pc=0x"), std::string::npos);
}

} // namespace
