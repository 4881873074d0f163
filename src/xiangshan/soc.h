/**
 * @file
 * The XIANGSHAN SoC: N cores sharing one functional system and one
 * coherent memory hierarchy, plus the one run loop every driver of the
 * DUT (tools, tests, benches, DiffTest) goes through.
 */

#ifndef MINJIE_XIANGSHAN_SOC_H
#define MINJIE_XIANGSHAN_SOC_H

#include <algorithm>
#include <memory>

#include "workload/asm.h"
#include "xiangshan/core.h"

namespace minjie::xs {

class Soc
{
  public:
    /**
     * @param cfg     per-core configuration (shared by all cores)
     * @param nCores  1 (YQH) or 2 (NH) in the paper's configurations
     * @param dramMb  functional DRAM size
     */
    Soc(const CoreConfig &cfg, unsigned nCores = 1, uint64_t dramMb = 256);

    iss::System &system() { return sys_; }
    uarch::MemHierarchy &mem() { return *mem_; }
    Core &core(unsigned i) { return *cores_[i]; }
    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }

    /** Set every core's reset pc (call before running). */
    void setEntry(Addr entry);

    /** Load @p prog into DRAM and set every core's reset pc to its
     *  entry (call before running). */
    void
    loadProgram(const workload::Program &prog)
    {
        prog.loadInto(sys_.dram);
        setEntry(prog.entry);
    }

    struct RunResult
    {
        Cycle cycles = 0;
        bool completed = false; ///< all cores drained before the limit
    };

    /**
     * The one SoC drive loop: while fewer than @p maxCycles have
     * elapsed and @p keepGoing(cycles elapsed) holds, tick the CLINT
     * and every live core; completed once every core drains. A
     * template, not a std::function: sampled slices and campaign jobs
     * must not pay an indirect call per iteration.
     */
    template <class F>
    RunResult
    runWhile(Cycle maxCycles, F keepGoing)
    {
        RunResult r;
        while (r.cycles < maxCycles && keepGoing(r.cycles)) {
            sys_.clint.tick();
            bool allDone = true;
            Cycle consumed = 1;
            for (auto &core : cores_) {
                if (!core->done()) {
                    consumed = std::max(consumed,
                                        core->tick(maxCycles - r.cycles));
                    allDone = false;
                }
            }
            r.cycles += consumed;
            // Event-driven skip-ahead: the core fast-forwarded through
            // idle cycles the loop never saw; catch the CLINT up so
            // mtime matches the per-cycle reference path.
            if (consumed > 1)
                sys_.clint.tick(consumed - 1);
            if (allDone) {
                r.completed = true;
                break;
            }
        }
        return r;
    }

    /**
     * Run until every core drains (oracle halted via SimCtrl and the
     * pipeline is empty) or @p maxCycles elapse.
     */
    RunResult
    run(Cycle maxCycles)
    {
        return runWhile(maxCycles, [](Cycle) { return true; });
    }

    /**
     * Run until core 0 has committed @p instrs instructions (or the
     * program ends / @p maxCycles elapse). Used by the checkpoint-based
     * performance estimation flow (warmup + measurement windows).
     */
    RunResult runUntilInstrs(InstCount instrs, Cycle maxCycles);

    /** Aggregate IPC across cores. */
    double ipc() const;

  private:
    iss::System sys_;
    CoreConfig cfg_;
    std::unique_ptr<uarch::MemHierarchy> mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Core *> corePtrs_; ///< peer list for LR/SC semantics
};

} // namespace minjie::xs

#endif // MINJIE_XIANGSHAN_SOC_H
