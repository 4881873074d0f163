/**
 * @file
 * Micro-architecture configurations of the XIANGSHAN cycle model,
 * including the tape-out parameter sets of Table II (YQH and NH) and a
 * deliberately de-tuned "GEM5-aligned" configuration (Section II-E).
 */

#ifndef MINJIE_XIANGSHAN_CONFIG_H
#define MINJIE_XIANGSHAN_CONFIG_H

#include <optional>
#include <string>

#include "isa/op.h"
#include "uarch/hierarchy.h"

namespace minjie::xs {

/** Instruction scheduling policy of the reservation stations. */
enum class IssuePolicy : uint8_t {
    Age,  ///< oldest-ready-first (the baseline in Section IV-D)
    Pubs, ///< prioritize unconfident branch slices [Ando, MICRO'18]
};

/**
 * Simulation-model fast-path knobs. These change how fast the model
 * runs on the host, never what it computes: every combination is
 * cycle-exact against the reference scan-based path (byte-identical
 * PerfCounters and commit-probe streams — enforced by
 * tests/xiangshan/sched_diff_test.cpp). Each knob is independently
 * ablatable via `--xs-no-bitset` / `--xs-no-skip` (mirroring the NEMU
 * `--nemu-no-*` flags) so the reference path stays alive as the oracle
 * of the differential rig.
 */
struct ModelOpts
{
    bool bitsetSched = true; ///< bitset scoreboard/wakeup + SoA slots
    bool skipAhead = true;   ///< event-driven idle-cycle skipping
};

/** Per-functional-unit-class execution resources. */
struct FuCfg
{
    unsigned count = 1;       ///< number of units
    unsigned latency = 1;     ///< cycles from issue to result
    bool pipelined = true;    ///< unpipelined units block per op
    unsigned rsSize = 16;     ///< reservation-station entries
    unsigned rsIssueWidth = 1;///< selects per cycle from this RS
};

struct CoreConfig
{
    std::string name = "NH";

    // Frontend.
    unsigned fetchWidth = 8;       ///< instrs per fetch cycle (8*4B)
    unsigned fetchBufferSize = 48;
    unsigned ubtbEntries = 256;
    unsigned btbEntries = 4096;
    unsigned tageEntries = 16384;
    bool hasIttage = true;
    unsigned rasDepth = 32;
    unsigned mispredictPenalty = 11; ///< redirect-to-refill bubble
    unsigned ubtbMissBubble = 2;     ///< BPU override latency
    unsigned trapPenalty = 16;

    // Decode / rename.
    unsigned decodeWidth = 6;
    unsigned commitWidth = 6;
    bool fusion = true;
    bool moveElim = true;

    // Window.
    unsigned robSize = 256;
    unsigned lqSize = 80;
    unsigned sqSize = 64;
    unsigned intPrf = 192;
    unsigned fpPrf = 192;
    unsigned storeBufferSize = 16;
    bool splitStaStd = true; ///< NH decouples store addr/data uops

    // Execution units, indexed by isa::FuType.
    FuCfg fu[static_cast<unsigned>(isa::FuType::None) + 1];

    IssuePolicy policy = IssuePolicy::Age;
    unsigned pubsSliceDepth = 3; ///< producer-chain marking depth

    ModelOpts model; ///< host-speed knobs (cycle-exact, see above)

    // Memory system.
    uarch::MemCfg mem;
    unsigned storeForwardLatency = 4;

    /** Table II, YQH column (28nm, 1.3 GHz generation). */
    static CoreConfig yqh();

    /** Table II, NH column (14nm, 2 GHz generation). */
    static CoreConfig nh();

    /** Roughly-parameter-aligned GEM5-flavoured model: same window
     *  sizes as NH but with the weaker frontend/scheduling detail the
     *  paper blames for the ~30% gap (Section II-E). */
    static CoreConfig gem5ish();

    /** The named configuration ("nh", "yqh" or "gem5ish"), or no
     *  value for any other name. */
    static std::optional<CoreConfig> byName(const std::string &name);

    FuCfg &fuFor(isa::FuType t) { return fu[static_cast<unsigned>(t)]; }
    const FuCfg &
    fuFor(isa::FuType t) const
    {
        return fu[static_cast<unsigned>(t)];
    }
};

} // namespace minjie::xs

#endif // MINJIE_XIANGSHAN_CONFIG_H
