/**
 * @file
 * Quickstart: the 5-minute tour of the MINJIE platform.
 *
 * 1. Assemble a small RV64 program with the workload builder.
 * 2. Run it on NEMU (the fast interpreter / DiffTest REF).
 * 3. Run it on the XIANGSHAN cycle model under DiffTest co-simulation.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "difftest/difftest.h"
#include "iss/system.h"
#include "nemu/nemu.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

using namespace minjie;
namespace wl = minjie::workload;

int
main()
{
    // ---- 1. assemble a program: sum of squares 1..100 ----
    wl::Layout layout;
    wl::Asm a(layout.codeBase);
    a.li(wl::a0, 0);   // acc
    a.li(wl::a1, 100); // i
    wl::Label loop = a.boundLabel();
    a.rtype(isa::Op::Mul, wl::a2, wl::a1, wl::a1);
    a.rtype(isa::Op::Add, wl::a0, wl::a0, wl::a2);
    a.itype(isa::Op::Addi, wl::a1, wl::a1, -1);
    a.branch(isa::Op::Bne, wl::a1, wl::zero, loop);
    a.exit(0);

    wl::Program prog;
    prog.name = "sum-of-squares";
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());

    std::printf("assembled %zu bytes of RV64 code\n",
                prog.segments[0].bytes.size());

    // ---- 2. run on NEMU ----
    {
        iss::System sys(64);
        prog.loadInto(sys.dram);
        nemu::Nemu nemu(sys.bus, sys.dram, 0, prog.entry);
        nemu.setHaltFn([&] { return sys.simctrl.exited(); });
        auto r = nemu.run(1'000'000);
        std::printf("[nemu]      executed %llu instructions, "
                    "a0 = %llu (expected 338350)\n",
                    static_cast<unsigned long long>(r.executed),
                    static_cast<unsigned long long>(nemu.state().x[10]));
    }

    // ---- 3. run on XIANGSHAN with DiffTest attached ----
    {
        xs::Soc soc(xs::CoreConfig::nh());
        difftest::DiffTest dt(soc);
        dt.loadProgram(prog);

        Cycle cycles = dt.run(10'000'000).cycles;
        const auto &p = soc.core(0).perf();
        std::printf("[xiangshan] %llu instructions in %llu cycles "
                    "(ipc %.2f), a0 = %llu\n",
                    static_cast<unsigned long long>(p.instrs),
                    static_cast<unsigned long long>(cycles), p.ipc(),
                    static_cast<unsigned long long>(
                        soc.core(0).oracleState().x[10]));
        std::printf("[difftest]  %llu commits checked, %s\n",
                    static_cast<unsigned long long>(
                        dt.stats().commitsChecked),
                    dt.ok() ? "no mismatches" : "MISMATCH FOUND");
        if (!dt.ok()) {
            std::printf("  %s\n", dt.failures().front().c_str());
            return 1;
        }
    }
    std::printf("quickstart OK\n");
    return 0;
}
