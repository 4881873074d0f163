#include <gtest/gtest.h>

#include <algorithm>

#include "difftest/difftest.h"
#include "nemu/nemu.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
using namespace minjie::xs;
namespace wl = minjie::workload;

Soc::RunResult
runProgram(Soc &soc, const wl::Program &prog, Cycle maxCycles = 5'000'000)
{
    soc.loadProgram(prog);
    return soc.run(maxCycles);
}

TEST(Core, SumProgramCompletes)
{
    Soc soc(CoreConfig::nh());
    auto r = runProgram(soc, wl::sumProgram(1000));
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(soc.system().simctrl.exitCode(), 0u);
    const auto &p = soc.core(0).perf();
    EXPECT_GT(p.instrs, 3000u);
    // A trivial dependent loop cannot exceed a few IPC nor drop absurdly.
    EXPECT_GT(p.ipc(), 0.3);
    EXPECT_LT(p.ipc(), 6.0);
}

TEST(Core, CommitStreamMatchesNemu)
{
    // The DUT's commit probes must replay exactly the reference
    // model's instruction stream: pc sequence, rd writes, mem info.
    auto prog = wl::buildProxy(wl::specIntSuite()[5], 10); // sjeng proxy

    // Reference stream from NEMU.
    iss::System refSys(64);
    prog.loadInto(refSys.dram);
    nemu::Nemu ref(refSys.bus, refSys.dram, 0, prog.entry);
    ref.setHaltFn([&] { return refSys.simctrl.exited(); });

    struct RefRec
    {
        Addr pc;
        uint64_t rdVal;
        bool rdWritten;
    };
    std::vector<RefRec> refStream;
    for (int i = 0; i < 2'000'000 && !refSys.simctrl.exited(); ++i) {
        Addr pc = ref.state().pc;
        uint8_t rdBefore = 0;
        (void)rdBefore;
        iss::ExecInfo info;
        ref.step(&info);
        // Record every step (including the exit store).
        refStream.push_back({pc, 0, false});
    }

    // DUT commit stream.
    Soc soc(CoreConfig::nh());
    std::vector<Addr> dutPcs;
    std::vector<std::pair<uint8_t, uint64_t>> dutWrites;
    soc.core(0).setCommitBatchHook(
        [&](const difftest::CommitProbe *p, unsigned n) {
            for (unsigned i = 0; i < n; ++i) {
                dutPcs.push_back(p[i].pc);
                if (p[i].rdWritten)
                    dutWrites.push_back({p[i].rd, p[i].rdValue});
            }
        });
    auto r = runProgram(soc, prog);
    ASSERT_TRUE(r.completed);

    ASSERT_EQ(dutPcs.size(), refStream.size());
    for (size_t i = 0; i < dutPcs.size(); ++i)
        ASSERT_EQ(dutPcs[i], refStream[i].pc) << "commit index " << i;
}

TEST(Core, FinalArchStateMatchesReference)
{
    auto prog = wl::coremarkProxy(20);

    iss::System refSys(64);
    prog.loadInto(refSys.dram);
    iss::SpikeInterp ref(refSys.bus, 0, prog.entry);
    ref.setHaltFn([&] { return refSys.simctrl.exited(); });
    ref.run(10'000'000);

    Soc soc(CoreConfig::nh());
    auto r = runProgram(soc, prog, 20'000'000);
    ASSERT_TRUE(r.completed);

    const auto &dut = soc.core(0).oracleState();
    const auto &refSt = ref.state();
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(dut.x[i], refSt.x[i]) << "x" << i;
}

TEST(Core, GoldenTimingPin)
{
    // Exact timing pin: the NH model on the coremark proxy must
    // reproduce these numbers to the cycle. The model is fully
    // deterministic, so any drift here is a (possibly accidental)
    // timing-model change — update the constants only alongside a
    // deliberate one, and say so in the commit message. The
    // sched_diff rig separately proves the fast paths can't be the
    // source of such a drift.
    Soc soc(CoreConfig::nh());
    auto r = runProgram(soc, wl::coremarkProxy(50));
    ASSERT_TRUE(r.completed);
    const auto &p = soc.core(0).perf();
    EXPECT_EQ(p.cycles, 96845u);
    EXPECT_EQ(p.instrs, 28592u);
    EXPECT_DOUBLE_EQ(p.ipc(), 28592.0 / 96845.0);
    EXPECT_EQ(p.tdRetiring, 8415u);
    EXPECT_EQ(p.tdFrontend, 5803u);
    EXPECT_EQ(p.tdBadSpec, 440u);
    EXPECT_EQ(p.tdBackendMem, 81693u);
    EXPECT_EQ(p.tdBackendCore, 494u);
    // The top-down decomposition is a partition of cycles: the five
    // buckets must sum exactly, with no residue lane.
    EXPECT_EQ(p.tdRetiring + p.tdFrontend + p.tdBadSpec +
                  p.tdBackendMem + p.tdBackendCore,
              p.cycles);
    EXPECT_EQ(p.branches, 6451u);
    EXPECT_EQ(p.branchMispredicts, 590u);
}

TEST(Core, PredictableLoopHasFewMispredicts)
{
    Soc soc(CoreConfig::nh());
    auto r = runProgram(soc, wl::sumProgram(20000));
    ASSERT_TRUE(r.completed);
    const auto &p = soc.core(0).perf();
    ASSERT_GT(p.branches, 20000u);
    // The loop branch is perfectly biased after warmup.
    EXPECT_LT(p.branchMispredicts * 100, p.branches);
}

TEST(Core, RandomBranchesHurtIpc)
{
    // entropy-heavy proxy vs a predictable one: the branchy one must
    // have both higher MPKI and lower IPC.
    wl::ProxySpec predictable{"pred", false, 64, 0, 30, 0, 0, 10, 0, 0};
    wl::ProxySpec random{"rand", false, 64, 0, 30, 100, 0, 10, 0, 0};

    Soc socA(CoreConfig::nh());
    auto ra = runProgram(socA, wl::buildProxy(predictable, 3000));
    ASSERT_TRUE(ra.completed);

    Soc socB(CoreConfig::nh());
    auto rb = runProgram(socB, wl::buildProxy(random, 3000));
    ASSERT_TRUE(rb.completed);

    EXPECT_GT(socB.core(0).perf().mpki(),
              socA.core(0).perf().mpki() + 2.0);
    EXPECT_LT(socB.core(0).perf().ipc(), socA.core(0).perf().ipc());
}

TEST(Core, CacheMissesHurtIpc)
{
    // Pointer chasing over 8MB vs 64KB working set.
    wl::ProxySpec small{"ws-small", false, 64, 60, 0, 0, 0, 10, 0, 0};
    wl::ProxySpec big{"ws-big", false, 8192, 60, 0, 0, 0, 10, 0, 0};

    Soc socA(CoreConfig::nh());
    auto ra = runProgram(socA, wl::buildProxy(small, 2000), 20'000'000);
    ASSERT_TRUE(ra.completed);

    Soc socB(CoreConfig::nh());
    auto rb = runProgram(socB, wl::buildProxy(big, 2000), 50'000'000);
    ASSERT_TRUE(rb.completed);

    EXPECT_LT(socB.core(0).perf().ipc(),
              socA.core(0).perf().ipc() * 0.7);
}

TEST(Core, NhOutperformsYqh)
{
    // The paper's headline: the second generation is markedly faster.
    // Use the realistic DDR memory model (the RTL-simulation rows of
    // Figure 12) on benchmarks whose working sets expose the
    // generational differences (L3, bigger window) within a feasible
    // simulation budget. Short cold-start runs over-charge NH for its
    // extra L3 hop on compulsory misses, so the budget must be large
    // enough for the working sets to establish.
    auto withDdr = [](CoreConfig c) {
        c.mem.dram.mode = minjie::uarch::DramCfg::Mode::Ddr;
        return c;
    };
    double nhSum = 0, yqhSum = 0;
    for (int b : {2, 8, 10}) { // mcf, omnetpp, xalancbmk proxies
        auto prog = wl::buildProxy(wl::specIntSuite()[b], 10'000'000);

        Soc nh(withDdr(CoreConfig::nh()));
        nh.loadProgram(prog);
        nh.runUntilInstrs(1'200'000, 400'000'000);
        nhSum += nh.core(0).perf().ipc();

        Soc yqh(withDdr(CoreConfig::yqh()));
        yqh.loadProgram(prog);
        yqh.runUntilInstrs(1'200'000, 400'000'000);
        yqhSum += yqh.core(0).perf().ipc();
    }
    EXPECT_GT(nhSum, yqhSum * 1.02)
        << "NH ipc sum " << nhSum << " vs YQH " << yqhSum;
}

TEST(Core, StoreForwardingHappens)
{
    // Stores immediately re-loaded: the store queue must forward.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::s0, layout.dataBase);
    a.li(wl::s2, 5000);
    wl::Label loop = a.boundLabel();
    a.store(isa::Op::Sd, wl::s2, 0, wl::s0);
    a.load(isa::Op::Ld, wl::t1, 0, wl::s0);
    a.rtype(isa::Op::Add, wl::s6, wl::s6, wl::t1);
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.branch(isa::Op::Bne, wl::s2, wl::zero, loop);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    Soc soc(CoreConfig::nh());
    auto r = runProgram(soc, prog);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(soc.core(0).perf().storeForwards, 4000u);
}

TEST(Core, FusionAndMoveElimCountersTick)
{
    // A program full of mv and fusable pairs.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::s2, 3000);
    wl::Label loop = a.boundLabel();
    a.itype(isa::Op::Addi, wl::t1, wl::s2, 0);  // mv t1, s2
    a.itype(isa::Op::Slli, wl::t2, wl::t1, 3);  // pair head
    a.rtype(isa::Op::Add, wl::t2, wl::t2, wl::s2); // fusable tail
    a.itype(isa::Op::Addi, wl::s2, wl::s2, -1);
    a.branch(isa::Op::Bne, wl::s2, wl::zero, loop);
    a.exit(0);
    wl::Program prog;
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    Soc soc(CoreConfig::nh());
    auto r = runProgram(soc, prog);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(soc.core(0).perf().movesEliminated, 2500u);
    EXPECT_GT(soc.core(0).perf().fusedPairs, 2500u);

    // YQH has neither feature.
    Soc yqh(CoreConfig::yqh());
    auto ry = runProgram(yqh, prog);
    ASSERT_TRUE(ry.completed);
    EXPECT_EQ(yqh.core(0).perf().movesEliminated, 0u);
    EXPECT_EQ(yqh.core(0).perf().fusedPairs, 0u);
}

TEST(Core, ReadyHistogramCollected)
{
    Soc soc(CoreConfig::nh());
    auto r = runProgram(soc, wl::buildProxy(wl::specIntSuite()[5], 100));
    ASSERT_TRUE(r.completed);
    const auto &p = soc.core(0).perf();
    EXPECT_GT(p.readySamples, 0u);
    uint64_t total = 0;
    for (auto v : p.readyHist)
        total += v;
    EXPECT_EQ(total, p.readySamples);
}

TEST(Core, DualCoreBothMakeProgress)
{
    // Same program on both cores (hart-id agnostic workload).
    auto prog = wl::sumProgram(2000);
    Soc soc(CoreConfig::nh(), 2);
    soc.loadProgram(prog);
    auto r = soc.run(5'000'000);
    ASSERT_TRUE(r.completed);
    // The first core to exit halts the shared SimCtrl, so the other
    // core may stop a little short of the full program.
    EXPECT_GT(soc.core(0).perf().instrs, 4000u);
    EXPECT_GT(soc.core(1).perf().instrs, 4000u);
}

TEST(Core, FaultInjectionCorruptsOneProbe)
{
    auto prog = wl::sumProgram(50);
    Soc soc(CoreConfig::nh());

    // sum loop has no loads; use a load-bearing program.
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::s0, layout.dataBase);
    a.store(isa::Op::Sd, wl::s0, 0, wl::s0);
    a.load(isa::Op::Ld, wl::t1, 0, wl::s0);
    a.load(isa::Op::Ld, wl::t2, 0, wl::s0);
    a.exit(0);
    wl::Program p2;
    p2.entry = layout.codeBase;
    p2.segments.push_back(a.finish());

    unsigned corrupted = 0;
    soc.core(0).setCommitBatchHook(
        [&](const difftest::CommitProbe *p, unsigned n) {
            for (unsigned i = 0; i < n; ++i)
                if (p[i].isLoad && p[i].rdWritten &&
                    p[i].rdValue != layout.dataBase)
                    ++corrupted;
        });
    soc.core(0).injectLoadFault(0xdead0000);
    auto r = runProgram(soc, p2);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(corrupted, 1u);
}

TEST(SelfModifyingCode, XiangshanCore)
{
    // The oracle reads instruction bits through a cached host pointer
    // to its fetch page. The patch store and fence.i must still be
    // seen (exit code 1 + 7 = 8): with the code copied in, with it
    // mapped from a source as a pack restore maps it, and under
    // DiffTest, commit by commit against NEMU.
    auto prog = wl::smcProgram();
    {
        Soc soc(CoreConfig::nh());
        ASSERT_TRUE(runProgram(soc, prog).completed);
        EXPECT_EQ(soc.system().simctrl.exitCode(), 8u);
    }
    {
        const auto &code = prog.segments.at(0);
        ASSERT_EQ(code.base & mem::PhysMem::PAGE_MASK, 0u);
        ASSERT_LE(code.bytes.size(), mem::PhysMem::PAGE_SIZE);
        std::vector<uint8_t> page(mem::PhysMem::PAGE_SIZE, 0);
        std::copy(code.bytes.begin(), code.bytes.end(), page.begin());
        const std::vector<uint8_t> orig = page;
        Soc soc(CoreConfig::nh());
        soc.system().dram.mapPage(code.base, page.data());
        soc.setEntry(prog.entry);
        ASSERT_TRUE(soc.run(5'000'000).completed);
        EXPECT_EQ(soc.system().simctrl.exitCode(), 8u);
        EXPECT_EQ(page, orig) << "the patch reached the mapped source";
    }
    {
        Soc soc(CoreConfig::nh());
        difftest::DiffTest dt(soc);
        dt.loadProgram(prog);
        dt.run(5'000'000);
        EXPECT_TRUE(dt.ok()) << dt.failures().front();
        EXPECT_GT(dt.stats().commitsChecked, 10u);
        EXPECT_EQ(soc.system().simctrl.exitCode(), 8u);
    }
}

} // namespace
