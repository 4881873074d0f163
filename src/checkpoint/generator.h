/**
 * @file
 * Checkpoint generation flow (paper Section III-D3): profile a program
 * with NEMU collecting BBVs, select representative intervals with
 * SimPoint, then re-run at full interpreter speed and snapshot each
 * selected interval boundary straight into a `.mjk` pack.
 */

#ifndef MINJIE_CHECKPOINT_GENERATOR_H
#define MINJIE_CHECKPOINT_GENERATOR_H

#include "checkpoint/pack.h"
#include "checkpoint/simpoint.h"
#include "common/clock.h"
#include "workload/programs.h"

namespace minjie::checkpoint {

struct GenResult
{
    /** Instructions executed before each checkpoint, in SimPoint
     *  order (the pack's table order). */
    std::vector<InstCount> checkpoints;
    SimPoints simpoints;
    /** The checkpoints, weighted simpoints.sizes[i] / weightDen(). */
    PackWriter pack;
    InstCount totalInsts = 0;
    double profileSec = 0;   ///< pass 1 (BBV profiling) wall time
    double profileMips = 0;  ///< pass-1 speed
    double generateSec = 0;  ///< pass 2 (re-run + snapshots) wall time
    double generateMips = 0; ///< pass-2 speed
    /** Each whole pass (memory, image load, engine, run, snapshots). */
    PhaseCost profilePhase, generatePhase;
};

/**
 * Generate SimPoint checkpoints for @p prog.
 *
 * @param intervalInsts instructions per SimPoint interval
 * @param maxK          maximum number of checkpoints
 * @param maxInsts      profiling budget (safety bound)
 */
GenResult generateCheckpoints(const workload::Program &prog,
                              InstCount intervalInsts, unsigned maxK,
                              InstCount maxInsts = 200'000'000);

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_GENERATOR_H
