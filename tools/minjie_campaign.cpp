/**
 * @file
 * minjie-campaign: parallel fuzz co-simulation campaign driver.
 *
 *   minjie-campaign --jobs 8 --seeds 2000
 *   minjie-campaign --jobs 8 --seeds 500 --difftest-pct 5
 *   minjie-campaign --seeds 200 --inject-bug xor --corpus-dir tests/corpus
 *
 * Runs thousands of randomized co-simulation jobs across a worker
 * pool, buckets failures by first-divergence signature, delta-debugs
 * one representative per bucket to a minimal reproducer, and emits a
 * machine-readable JSON report. Results are a pure function of the
 * seed range: --jobs changes throughput, never findings.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "campaign/campaign.h"
#include "isa/op.h"
#include "obs/topdown.h"

using namespace minjie;
using namespace minjie::campaign;

namespace {

void
usage()
{
    std::printf(
        "minjie-campaign [options]\n"
        "  --seeds N        number of jobs / seeds (default 200)\n"
        "  --seed-base N    first seed (default 1)\n"
        "  --jobs N         worker threads (default: hardware threads)\n"
        "  --insts N        body instructions per program (default 300)\n"
        "  --fp-pct P       %% of seeds with fp programs (default 25)\n"
        "  --rvc-pct P      %% of seeds with compressed code (default 30)\n"
        "  --difftest-pct P %% of seeds run as NEMU-vs-XiangShan DiffTest\n"
        "                   co-simulation (default 0)\n"
        "  --pairs A-B,...  engine pairs to cycle through, e.g.\n"
        "                   spike-tci,nemu-spike (engines: spike,\n"
        "                   dromajo, tci, nemu)\n"
        "  --inject-bug OP[:MASK]\n"
        "                   self-test: corrupt OP's destination on one\n"
        "                   engine (e.g. xor, add:0x80000000)\n"
        "  --nemu-no-chain  ablate NEMU block chaining in lockstep jobs\n"
        "  --nemu-no-fastpath\n"
        "                   ablate NEMU's memory fast path (host TLB +\n"
        "                   direct DRAM) in lockstep jobs\n"
        "  --xs-no-bitset   DUT reference scan-based scheduling in\n"
        "                   DiffTest jobs (cycle-exact, slower)\n"
        "  --xs-no-skip     ablate DUT event-driven idle-cycle skipping\n"
        "  --perf           collect per-job DUT perf summaries for\n"
        "                   DiffTest jobs (top-down buckets, ipc) and\n"
        "                   a merged aggregate in the JSON report\n"
        "  --no-shrink      skip delta-debugging of failures\n"
        "  --corpus-dir D   write minimized failures into D as .mjc\n"
        "  --out FILE       write the JSON report to FILE (default\n"
        "                   campaign.json; '-' for stdout only)\n");
}

bool
parsePairs(const std::string &arg,
           std::vector<std::pair<Engine, Engine>> &out)
{
    out.clear();
    size_t pos = 0;
    while (pos < arg.size()) {
        size_t comma = arg.find(',', pos);
        std::string item = arg.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t dash = item.find('-');
        if (dash == std::string::npos)
            return false;
        Engine a, b;
        if (!parseEngine(item.substr(0, dash), a) ||
            !parseEngine(item.substr(dash + 1), b))
            return false;
        out.push_back({a, b});
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return !out.empty();
}

bool
parseBug(const std::string &arg, BugInject &bug)
{
    std::string opName = arg;
    size_t colon = arg.find(':');
    if (colon != std::string::npos) {
        opName = arg.substr(0, colon);
        bug.xorMask = std::strtoull(arg.c_str() + colon + 1, nullptr, 0);
        if (bug.xorMask == 0)
            return false;
    }
    for (int i = 0; i < static_cast<int>(isa::Op::NumOps); ++i) {
        auto op = static_cast<isa::Op>(i);
        if (opName == isa::opName(op)) {
            bug.op = op;
            bug.enabled = true;
            return true;
        }
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignConfig cfg;
    cfg.seedCount = 200;
    cfg.workers = std::max(1u, std::thread::hardware_concurrency());
    std::string outFile = "campaign.json";

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--seeds" && (v = next()))
            cfg.seedCount = std::strtoull(v, nullptr, 0);
        else if (a == "--seed-base" && (v = next()))
            cfg.seedBase = std::strtoull(v, nullptr, 0);
        else if (a == "--jobs" && (v = next()))
            cfg.workers = static_cast<unsigned>(
                std::strtoul(v, nullptr, 0));
        else if (a == "--insts" && (v = next()))
            cfg.nInsts = static_cast<unsigned>(
                std::strtoul(v, nullptr, 0));
        else if (a == "--fp-pct" && (v = next()))
            cfg.fpPct = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (a == "--rvc-pct" && (v = next()))
            cfg.rvcPct =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (a == "--difftest-pct" && (v = next()))
            cfg.difftestPct =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (a == "--pairs" && (v = next())) {
            if (!parsePairs(v, cfg.pairs)) {
                std::fprintf(stderr, "bad --pairs: %s\n", v);
                return 2;
            }
        } else if (a == "--inject-bug" && (v = next())) {
            if (!parseBug(v, cfg.bug)) {
                std::fprintf(stderr, "bad --inject-bug: %s\n", v);
                return 2;
            }
        } else if (a == "--nemu-no-chain") {
            cfg.lockstep.nemuChain = false;
        } else if (a == "--nemu-no-fastpath") {
            cfg.lockstep.nemuFastPath = false;
        } else if (a == "--xs-no-bitset") {
            cfg.xsModel.bitsetSched = false;
        } else if (a == "--xs-no-skip") {
            cfg.xsModel.skipAhead = false;
        } else if (a == "--perf") {
            cfg.perf = true;
        } else if (a == "--no-shrink") {
            cfg.shrinkFailures = false;
        } else if (a == "--corpus-dir" && (v = next())) {
            cfg.corpusDir = v;
        } else if (a == "--out" && (v = next())) {
            outFile = v;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage();
            return 2;
        }
    }

    std::printf("campaign: %llu jobs on %u workers, seeds [%llu, %llu)\n",
                static_cast<unsigned long long>(cfg.seedCount),
                cfg.workers,
                static_cast<unsigned long long>(cfg.seedBase),
                static_cast<unsigned long long>(cfg.seedBase +
                                                cfg.seedCount));
    if (cfg.bug.enabled)
        std::printf("campaign: self-test bug injected on %s side %d "
                    "(mask 0x%llx)\n",
                    isa::opName(cfg.bug.op), cfg.bug.side,
                    static_cast<unsigned long long>(cfg.bug.xorMask));

    CampaignReport rep = runCampaign(cfg);

    std::printf("campaign: %llu jobs in %.2fs (%.0f jobs/s, %.1f MIPS "
                "aggregate), %llu failures in %zu buckets\n",
                static_cast<unsigned long long>(rep.jobs),
                rep.elapsedSec, rep.jobsPerSec, rep.mips,
                static_cast<unsigned long long>(rep.failures),
                rep.buckets.size());
    for (const auto &b : rep.buckets) {
        std::printf("  [%4zu seeds] %-28s rep seed %llu -> %u insts%s%s\n",
                    b.seeds.size(), b.signature.c_str(),
                    static_cast<unsigned long long>(b.repSeed),
                    b.shrunkInsts,
                    b.corpusFile.empty() ? "" : " -> ",
                    b.corpusFile.c_str());
    }

    std::printf("campaign: host time per job kind\n");
    std::printf("  %-16s %6s %9s %9s %9s\n", "kind", "jobs", "host s",
                "p50 us", "p90 us");
    for (const auto &k : rep.kindTimes())
        std::printf("  %-16s %6llu %9.3f %9.0f %9.0f\n", k.kind.c_str(),
                    static_cast<unsigned long long>(k.jobs), k.sec, k.p50Us,
                    k.p90Us);

    if (cfg.perf) {
        obs::CounterSnapshot agg = rep.perfCounters();
        std::printf("campaign: perf aggregate over %llu difftest jobs: "
                    "%llu cycles, %llu instrs\n",
                    static_cast<unsigned long long>(
                        agg.get("dut.jobs")),
                    static_cast<unsigned long long>(
                        agg.get("dut.cycles")),
                    static_cast<unsigned long long>(
                        agg.get("dut.instrs")));
        // Aggregated counters are per-key sums, so the top-down
        // bucket partition survives aggregation exactly.
        auto stack = obs::CpiStack::fromCounters(agg, "dut");
        std::printf("%s", stack.table("campaign top-down").c_str());
        std::printf("campaign: top-down exact-sum: %s\n",
                    stack.sumsExactly() ? "PASS" : "FAIL");
    }

    if (outFile == "-") {
        std::printf("%s\n", rep.toJson().c_str());
    } else {
        std::ofstream f(outFile);
        f << rep.toJson() << "\n";
        f.close();
        if (!f) {
            std::fprintf(stderr, "campaign: cannot write %s\n",
                         outFile.c_str());
            return 2;
        }
        std::printf("campaign: JSON report written to %s\n",
                    outFile.c_str());
    }

    return rep.failures == 0 ? 0 : 1;
}
