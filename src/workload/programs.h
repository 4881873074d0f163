/**
 * @file
 * Workload programs: SPEC CPU2006 proxy kernels, CoreMark-like loops,
 * and random programs for fuzz co-simulation.
 */

#ifndef MINJIE_WORKLOAD_PROGRAMS_H
#define MINJIE_WORKLOAD_PROGRAMS_H

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/asm.h"

namespace minjie::workload {

/** Standard layout used by every canned program. */
struct Layout
{
    Addr codeBase = 0x80000000;
    Addr auxCode = 0x80040000;  ///< indirect-jump case blocks
    Addr dataBase = 0x80100000;
    Addr stackTop = 0x80f00000;
};

/**
 * Characteristics of one SPEC-proxy benchmark. The numbers steer the
 * generator toward the qualitative behaviour class of the original
 * benchmark (memory-bound, branchy, fp-heavy, ...).
 */
struct ProxySpec
{
    const char *name;
    bool fp;               ///< belongs to the SPECfp suite
    unsigned wsKB;          ///< data working-set size (power of two KB)
    unsigned chasePct;      ///< % of body groups doing pointer chasing
    unsigned branchPct;     ///< % of body groups with a data-dep branch
    unsigned entropyPct;    ///< of those branches, % truly random
    unsigned fpPct;         ///< % of body groups doing fp arithmetic
    unsigned storePct;      ///< % of body groups storing
    unsigned callPct;       ///< % of body groups calling a leaf
    unsigned indirectPct;   ///< % of body groups taking an indirect jump
};

/** The SPECint 2006 proxy suite (paper's Figure 8/12 benchmark list,
 *  excluding 400.perlbench as the paper does). */
const std::vector<ProxySpec> &specIntSuite();

/** The SPECfp 2006 proxy suite (excluding 435.gromacs as the paper
 *  does). */
const std::vector<ProxySpec> &specFpSuite();

/**
 * Build the proxy program for @p spec.
 *
 * @param iterations  outer-loop trip count; total dynamic instructions
 *                    scale roughly as 300-600 per iteration
 * @param seed        generator seed (layout of body groups)
 */
Program buildProxy(const ProxySpec &spec, uint64_t iterations,
                   uint64_t seed = 1, const Layout &layout = {});

/** Small deterministic sanity program: sums 1..n, exits 0 on success. */
Program sumProgram(uint64_t n, const Layout &layout = {});

/** CoreMark-stand-in: list walk + matrix-ish multiply + CRC loop. */
Program coremarkProxy(uint64_t iterations, const Layout &layout = {});

/**
 * Long-running allocator/lookup stress that keeps dirtying new pages;
 * used by the LightSSS overhead experiments (paper Figure 6).
 */
Program memStressProgram(uint64_t iterations, unsigned footprintMB,
                         const Layout &layout = {});

/**
 * A supervisor-mode Sv39 program: builds gigapage identity-mapped page
 * tables, enables translation, drops to S-mode via mret, and runs a
 * virtually-addressed kernel before exiting through the mapped device.
 * Exercises the full privilege + paging stack end-to-end.
 */
Program sv39Program(const Layout &layout = {});

/**
 * Self-modifying code with fence.i. The instruction at codeBase + 8
 * starts as `addi a0, a0, 1`; the program runs it, overwrites it with
 * `addi a0, a0, 7`, executes fence.i, runs it again, and exits with
 * a0 (expected 1 + 7 = 8). Engines that cache decoded instructions
 * see the patch only because fence.i flushes them.
 */
Program smcProgram(const Layout &layout = {});

/**
 * Random straight-line program for fuzz co-simulation: arithmetic,
 * short forward branches and sandboxed loads/stores, ending with a
 * SimCtrl exit. All engines must produce identical architectural state.
 */
Program randomProgram(Rng &rng, unsigned nInsts, bool withFp,
                      const Layout &layout = {});

/**
 * The run-spec workload table every tool shares: "coremark",
 * "memstress", "sum", "sv39" or a SPEC proxy name, built with
 * @p iters iterations (sv39 takes none). No value for an unknown name.
 */
std::optional<Program> byName(const std::string &name, uint64_t iters);

/** Every name byName() accepts, in `--list` order. */
std::vector<std::string> names();

} // namespace minjie::workload

#endif // MINJIE_WORKLOAD_PROGRAMS_H
