/**
 * Campaign engine unit tests: lockstep divergence detection via the
 * injected self-test bug, bucketing by first-divergence signature,
 * ddmin shrinking to a minimal reproducer, and the worker-count
 * invariance guarantee (results are a pure function of the seed range).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "campaign/campaign.h"
#include "campaign/lockstep.h"
#include "campaign/shrink.h"
#include "isa/csr.h"
#include "iss/interp.h"
#include "iss/system.h"
#include "workload/shrinkable.h"

namespace {

using namespace minjie;
using namespace minjie::campaign;
namespace wl = minjie::workload;

CampaignConfig
buggyConfig(uint64_t seeds, unsigned workers)
{
    CampaignConfig cfg;
    cfg.seedBase = 1;
    cfg.seedCount = seeds;
    cfg.workers = workers;
    cfg.nInsts = 200;
    cfg.bug.enabled = true;
    cfg.bug.op = isa::Op::Xor;
    cfg.bug.xorMask = 1;
    cfg.shrinkFailures = false;
    return cfg;
}

TEST(Lockstep, CleanPairsAgreeAndExit)
{
    for (uint64_t seed = 50; seed < 56; ++seed) {
        Rng rng(seed);
        wl::RandomSpec spec;
        spec.nInsts = 200;
        auto prog = wl::randomShrinkable(rng, spec).assemble();
        auto r = runLockstep(Engine::Spike, Engine::Tci, prog, 100'000);
        EXPECT_FALSE(r.div.diverged()) << "seed " << seed << ": "
                                       << r.div.describe();
        EXPECT_TRUE(r.exited) << "seed " << seed;
    }
}

TEST(Lockstep, InjectedBugIsCaughtAtFirstDivergence)
{
    BugInject bug;
    bug.enabled = true;
    bug.op = isa::Op::Xor;
    bug.xorMask = 1;

    bool caught = false;
    for (uint64_t seed = 1; seed < 30 && !caught; ++seed) {
        Rng rng(seed);
        wl::RandomSpec spec;
        spec.nInsts = 200;
        auto prog = wl::randomShrinkable(rng, spec).assemble();
        auto r = runLockstep(Engine::Spike, Engine::Dromajo, prog,
                             100'000, &bug);
        if (!r.div.diverged())
            continue;
        caught = true;
        EXPECT_EQ(r.div.signature(), "xreg:alu:xor");
        EXPECT_EQ(r.div.op, isa::Op::Xor);
        // One side was XORed with 1, so the values differ in bit 0.
        EXPECT_EQ(r.div.valA ^ r.div.valB, 1u);
    }
    EXPECT_TRUE(caught) << "no program in the seed range used xor";
}

TEST(Lockstep, JumpToPcZeroTrapsAlike)
{
    // Jumping to pc 0, outside DRAM, is an instruction access fault.
    // Spike's decode cache starts as zero bytes and tags entries with
    // pc + 1; a zero entry must not read as a cached decode of pc 0.
    // The code starts past the base so that no instruction fills the
    // entry pc 0 maps to.
    wl::Layout layout;
    wl::Asm a(layout.codeBase + 0x100);
    a.li(wl::t0, layout.auxCode);
    a.csr(isa::Op::Csrrw, wl::zero, isa::CSR_MTVEC, wl::t0);
    a.jr(wl::zero);
    wl::Asm h(layout.auxCode);
    h.csr(isa::Op::Csrrs, wl::a0, isa::CSR_MCAUSE, wl::zero);
    h.csr(isa::Op::Csrrs, wl::a1, isa::CSR_MEPC, wl::zero);
    h.exit(0);
    wl::Program prog;
    prog.entry = a.base();
    prog.segments.push_back(a.finish());
    prog.segments.push_back(h.finish());

    for (Engine other : {Engine::Dromajo, Engine::Tci}) {
        auto r = runLockstep(Engine::Spike, other, prog, 1000);
        EXPECT_FALSE(r.div.diverged()) << engineName(other) << ": "
                                       << r.div.describe();
        EXPECT_TRUE(r.exited) << engineName(other);
    }
    iss::System sys(32);
    prog.loadInto(sys.dram);
    iss::SpikeInterp spike(sys.bus, 0, prog.entry);
    spike.run(1000);
    EXPECT_TRUE(sys.simctrl.exited());
    EXPECT_EQ(spike.state().x[wl::a0],
              static_cast<uint64_t>(isa::Exc::InstAccessFault));
    EXPECT_EQ(spike.state().x[wl::a1], 0u);
}

TEST(Campaign, BucketingGroupsIdenticalDivergences)
{
    CampaignConfig cfg = buggyConfig(40, 2);
    CampaignReport rep = runCampaign(cfg);
    ASSERT_GT(rep.failures, 5u);
    // Every failure is the same logical bug -> exactly one bucket.
    ASSERT_EQ(rep.buckets.size(), 1u);
    const Bucket &b = rep.buckets.front();
    EXPECT_EQ(b.signature, "xreg:alu:xor");
    EXPECT_EQ(b.seeds.size(), rep.failures);
    // Seed list is in ascending seed order (results indexed by seed).
    for (size_t i = 1; i < b.seeds.size(); ++i)
        EXPECT_LT(b.seeds[i - 1], b.seeds[i]);
}

TEST(Campaign, ShrinkerConvergesOnInjectedBug)
{
    CampaignConfig cfg = buggyConfig(20, 2);
    cfg.shrinkFailures = true;
    CampaignReport rep = runCampaign(cfg);
    ASSERT_EQ(rep.buckets.size(), 1u);
    const Bucket &b = rep.buckets.front();
    ASSERT_GE(b.shrunkInsts, 1u);
    EXPECT_LE(b.shrunkInsts, 8u)
        << "shrinker left " << b.shrunkInsts << " instructions";

    // The minimized program must still reproduce the exact signature.
    JobPlan plan = planJob(cfg, b.repSeed);
    Rng rng(b.repSeed);
    wl::ShrinkableProgram sp = wl::randomShrinkable(rng, plan.spec);
    SignatureFn sig = [&cfg, &plan](const wl::Program &p) {
        auto r = runLockstep(plan.a, plan.b, p, cfg.maxSteps, &cfg.bug);
        return r.div.diverged() ? r.div.signature() : std::string();
    };
    ShrinkResult sr = shrinkProgram(sp, b.signature, sig);
    EXPECT_EQ(sig(sr.program.assemble()), b.signature);
    EXPECT_EQ(sr.program.bodyInsts(), b.shrunkInsts);
}

TEST(Campaign, ResultsAreInvariantUnderWorkerCount)
{
    CampaignConfig one = buggyConfig(120, 1);
    CampaignConfig eight = buggyConfig(120, 8);
    CampaignReport a = runCampaign(one);
    CampaignReport b = runCampaign(eight);

    ASSERT_EQ(a.failures, b.failures);
    ASSERT_GT(a.failures, 10u);
    ASSERT_EQ(a.buckets.size(), b.buckets.size());
    for (size_t i = 0; i < a.buckets.size(); ++i) {
        EXPECT_EQ(a.buckets[i].signature, b.buckets[i].signature);
        EXPECT_EQ(a.buckets[i].repSeed, b.buckets[i].repSeed);
        EXPECT_EQ(a.buckets[i].seeds, b.buckets[i].seeds);
    }
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].seed, b.results[i].seed);
        EXPECT_EQ(a.results[i].failed, b.results[i].failed);
        EXPECT_EQ(a.results[i].signature, b.results[i].signature);
    }
}

TEST(Campaign, CleanCampaignFindsNoFailures)
{
    CampaignConfig cfg;
    cfg.seedBase = 1;
    cfg.seedCount = 30;
    cfg.workers = 2;
    cfg.nInsts = 150;
    CampaignReport rep = runCampaign(cfg);
    EXPECT_EQ(rep.failures, 0u);
    EXPECT_TRUE(rep.buckets.empty());
    EXPECT_EQ(rep.jobs, 30u);
}

TEST(Campaign, PlanningIsDeterministicPerSeed)
{
    CampaignConfig cfg;
    cfg.fpPct = 50;
    cfg.rvcPct = 50;
    for (uint64_t seed = 1; seed < 50; ++seed) {
        JobPlan p1 = planJob(cfg, seed);
        JobPlan p2 = planJob(cfg, seed);
        EXPECT_EQ(p1.a, p2.a);
        EXPECT_EQ(p1.b, p2.b);
        EXPECT_EQ(p1.difftest, p2.difftest);
        EXPECT_EQ(p1.spec.withFp, p2.spec.withFp);
        EXPECT_EQ(p1.spec.withRvc, p2.spec.withRvc);
    }
}

TEST(Campaign, FpJobsNeverLandOnNemu)
{
    CampaignConfig cfg;
    cfg.fpPct = 100;
    for (uint64_t seed = 1; seed < 200; ++seed) {
        JobPlan p = planJob(cfg, seed);
        EXPECT_TRUE(p.spec.withFp);
        EXPECT_NE(p.a, Engine::Nemu);
        EXPECT_NE(p.b, Engine::Nemu);
    }
}

TEST(Campaign, JsonReportCarriesBucketTable)
{
    CampaignConfig cfg = buggyConfig(20, 2);
    CampaignReport rep = runCampaign(cfg);
    std::string js = rep.toJson();
    EXPECT_NE(js.find("\"jobs\":20"), std::string::npos);
    EXPECT_NE(js.find("\"buckets\""), std::string::npos);
    EXPECT_NE(js.find("xreg:alu:xor"), std::string::npos);
    EXPECT_NE(js.find("\"workers\""), std::string::npos);
    EXPECT_NE(js.find("\"failing_jobs\""), std::string::npos);
}

TEST(Campaign, JobBlobRoundtrip)
{
    // A failed lockstep job and a DiffTest job carrying DUT counters
    // both come back field for field.
    CampaignConfig cfg = buggyConfig(1, 1);
    cfg.perf = true;
    JobResult lock;
    for (uint64_t seed = 1; seed < 50 && !lock.failed; ++seed)
        lock = runJob(cfg, seed);
    ASSERT_TRUE(lock.failed);
    cfg.difftestPct = 100;
    JobResult dt = runJob(cfg, 2);
    ASSERT_FALSE(dt.perf.values.empty());

    for (const JobResult &jr : {lock, dt}) {
        const std::vector<uint8_t> blob = encodeJob(jr);
        JobResult back;
        ASSERT_TRUE(decodeJob(blob, back));
        EXPECT_EQ(back.seed, jr.seed);
        EXPECT_EQ(back.failed, jr.failed);
        EXPECT_EQ(back.kind, jr.kind);
        EXPECT_EQ(back.signature, jr.signature);
        EXPECT_EQ(back.detail, jr.detail);
        EXPECT_EQ(back.steps, jr.steps);
        EXPECT_EQ(back.sec, jr.sec);
        EXPECT_EQ(back.perf, jr.perf);

        // A short or padded blob is rejected and leaves its target be.
        std::vector<uint8_t> cut(blob.begin(), blob.end() - 1);
        std::vector<uint8_t> padded = blob;
        padded.push_back(0);
        JobResult keep;
        keep.detail = "untouched";
        EXPECT_FALSE(decodeJob(cut, keep));
        EXPECT_FALSE(decodeJob(padded, keep));
        EXPECT_EQ(keep.detail, "untouched");
    }
}

TEST(Campaign, JobRepeatsInOneProcess)
{
    // A job's tables come from mappings earlier jobs in the process
    // wrote all over; it must still run exactly as it did first.
    CampaignConfig cfg;
    cfg.fpPct = 25;
    cfg.rvcPct = 30;
    cfg.difftestPct = 50;
    cfg.perf = true;
    std::vector<JobResult> first; // each kind's first job, as it ran
    for (uint64_t seed = 1; seed < 200; ++seed) {
        JobResult jr = runJob(cfg, seed);
        auto sameKind = [&](const JobResult &f) { return f.kind == jr.kind; };
        if (std::none_of(first.begin(), first.end(), sameKind))
            first.push_back(jr);
    }
    ASSERT_GE(first.size(), 5u);

    for (uint64_t seed = 1000; seed < 1050; ++seed)
        runJob(cfg, seed);
    for (const JobResult &f : first) {
        JobResult again = runJob(cfg, f.seed);
        EXPECT_EQ(again.kind, f.kind);
        EXPECT_EQ(again.failed, f.failed) << f.kind;
        EXPECT_EQ(again.steps, f.steps) << f.kind;
        EXPECT_EQ(again.signature, f.signature) << f.kind;
        EXPECT_EQ(again.perf, f.perf) << f.kind;
    }
}

TEST(Campaign, KindTimesCoverEveryJob)
{
    CampaignConfig cfg = buggyConfig(40, 2);
    CampaignReport rep = runCampaign(cfg);
    auto kinds = rep.kindTimes();
    ASSERT_FALSE(kinds.empty());
    uint64_t jobs = 0;
    for (size_t i = 0; i < kinds.size(); ++i) {
        if (i) {
            EXPECT_LT(kinds[i - 1].kind, kinds[i].kind);
        }
        EXPECT_GT(kinds[i].sec, 0.0);
        EXPECT_LE(kinds[i].p50Us, kinds[i].p90Us);
        jobs += kinds[i].jobs;
    }
    EXPECT_EQ(jobs, rep.jobs);
    std::string js = rep.toJson();
    EXPECT_NE(js.find("\"kinds\""), std::string::npos);
    EXPECT_NE(js.find("\"kind\":\"" + kinds[0].kind + "\""),
              std::string::npos);
}

/** Reference comparison: one PhysMem::read per segment byte. */
bool
compareMemoryBytewise(mem::PhysMem &a, mem::PhysMem &b,
                      const wl::Program &prog, Divergence &div)
{
    for (const auto &seg : prog.segments) {
        for (size_t i = 0; i < seg.bytes.size(); ++i) {
            uint64_t va = 0, vb = 0;
            a.read(seg.base + i, 1, va);
            b.read(seg.base + i, 1, vb);
            if (va != vb) {
                div.kind = Divergence::Kind::Memory;
                div.reg = static_cast<unsigned>(i);
                div.pc = seg.base + i;
                div.valA = va;
                div.valB = vb;
                return false;
            }
        }
    }
    return true;
}

constexpr Addr MEM_BASE = 0x80000000;
constexpr uint64_t MEM_SIZE = 64 * 1024;

/** Two segments: a partial page, and 200 bytes across a page boundary. */
wl::Program
segmentsProgram()
{
    wl::Program prog;
    prog.segments.push_back({MEM_BASE + 0x1000, std::vector<uint8_t>(100)});
    prog.segments.push_back({MEM_BASE + 0x3000 - 100,
                             std::vector<uint8_t>(200)});
    for (auto &seg : prog.segments)
        for (size_t i = 0; i < seg.bytes.size(); ++i)
            seg.bytes[i] = static_cast<uint8_t>(i * 7 + 3);
    return prog;
}

/** Runs both comparisons on fresh memories; @p plant edits them. */
template <typename Plant>
void
expectSameVerdict(const wl::Program &prog, Plant plant)
{
    Divergence fast, slow;
    bool okFast, okSlow;
    {
        mem::PhysMem a(MEM_BASE, MEM_SIZE), b(MEM_BASE, MEM_SIZE);
        plant(a, b);
        okFast = compareMemory(a, b, prog, fast);
    }
    {
        mem::PhysMem a(MEM_BASE, MEM_SIZE), b(MEM_BASE, MEM_SIZE);
        plant(a, b);
        okSlow = compareMemoryBytewise(a, b, prog, slow);
    }
    EXPECT_EQ(okFast, okSlow);
    EXPECT_EQ(fast.kind, slow.kind);
    EXPECT_EQ(fast.pc, slow.pc);
    EXPECT_EQ(fast.reg, slow.reg);
    EXPECT_EQ(fast.valA, slow.valA);
    EXPECT_EQ(fast.valB, slow.valB);
}

TEST(CompareMemory, MatchesBytewiseOnPlantedDifferences)
{
    auto prog = segmentsProgram();
    auto loadBoth = [&](mem::PhysMem &a, mem::PhysMem &b) {
        prog.loadInto(a);
        prog.loadInto(b);
    };
    const auto &partial = prog.segments[0];
    const auto &crossing = prog.segments[1];

    // Identical images.
    expectSameVerdict(prog, loadBoth);
    // First byte of the first segment.
    expectSameVerdict(prog, [&](mem::PhysMem &a, mem::PhysMem &b) {
        loadBoth(a, b);
        b.write(partial.base, 1, 0xee);
    });
    // Last byte of a partial page.
    expectSameVerdict(prog, [&](mem::PhysMem &a, mem::PhysMem &b) {
        loadBoth(a, b);
        a.write(partial.base + partial.bytes.size() - 1, 1, 0);
    });
    // A segment that crosses a page: a difference on each side of the
    // boundary (the first is reported), and one in the second page only.
    expectSameVerdict(prog, [&](mem::PhysMem &a, mem::PhysMem &b) {
        loadBoth(a, b);
        b.write(crossing.base + 99, 1, 0x11);
        b.write(crossing.base + 150, 1, 0x22);
    });
    expectSameVerdict(prog, [&](mem::PhysMem &a, mem::PhysMem &b) {
        loadBoth(a, b);
        a.write(crossing.base + 100, 1, 0x33);
    });
    // Pages one side never touched read as zeros.
    expectSameVerdict(prog, [&](mem::PhysMem &a, mem::PhysMem &) {
        prog.loadInto(a);
    });
    wl::Program zeros;
    zeros.segments.push_back({MEM_BASE + 0x5000, std::vector<uint8_t>(64)});
    expectSameVerdict(zeros, [&](mem::PhysMem &a, mem::PhysMem &) {
        zeros.loadInto(a);
    });
    // A segment running past the end of DRAM compares its outside part
    // as equal.
    wl::Program tail;
    tail.segments.push_back(
        {MEM_BASE + MEM_SIZE - 16, std::vector<uint8_t>(64, 0)});
    expectSameVerdict(tail, [&](mem::PhysMem &a, mem::PhysMem &) {
        a.write(MEM_BASE + MEM_SIZE - 1, 1, 5);
    });
    expectSameVerdict(tail, [&](mem::PhysMem &, mem::PhysMem &) {});

    // The planted cases above do diverge where expected.
    mem::PhysMem a(MEM_BASE, MEM_SIZE), b(MEM_BASE, MEM_SIZE);
    loadBoth(a, b);
    b.write(crossing.base + 150, 1, 0x22);
    Divergence div;
    ASSERT_FALSE(compareMemory(a, b, prog, div));
    EXPECT_EQ(div.kind, Divergence::Kind::Memory);
    EXPECT_EQ(div.pc, crossing.base + 150);
    EXPECT_EQ(div.reg, 150u);
    EXPECT_EQ(div.valA, crossing.bytes[150]);
    EXPECT_EQ(div.valB, 0x22u);
}

} // namespace
