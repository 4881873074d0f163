/**
 * @file
 * Sampled-simulation engine (paper Section III-D3).
 *
 * Each SimPoint slice restores a checkpoint from the shared read-only
 * pack, optionally fast-forwards `warmupInsts` functionally on NEMU,
 * then measures a detailed window on the XIANGSHAN core. Slices are
 * independent, so they run on the fork pool (common/fork_pool.h) and
 * come back as slice blobs; a crashing slice kills only its own worker
 * and is reported as a failed slice, never as a lost run.
 *
 * Reduction is deterministic by construction: results are indexed by
 * slice and merged in checkpoint order with exact integer SimPoint
 * weights (weightNum over the pack's common denominator), so weighted
 * IPC and the weighted top-down stack are byte-identical for any
 * worker count — the same invariance contract the campaign engine
 * gives, extended to performance sampling.
 */

#ifndef MINJIE_SAMPLE_ENGINE_H
#define MINJIE_SAMPLE_ENGINE_H

#include <cstdint>
#include <vector>

#include "obs/counter.h"
#include "obs/topdown.h"
#include "sample/store.h"
#include "xiangshan/soc.h"

namespace minjie::sample {

struct SampleConfig
{
    /** Forked worker processes; <= 1 runs slices in-process. */
    unsigned workers = 1;
    /** Functional-warmup instructions on NEMU before the detailed
     *  window (moves the measurement point past the checkpoint). */
    uint64_t warmupInsts = 0;
    /** Detailed-core measurement window, in committed instructions. */
    uint64_t measureInsts = 20'000;
    /** Per-slice detailed-cycle budget. */
    Cycle maxCycles = 20'000'000;
    /** Functional DRAM size for both warmup and detail. */
    uint64_t dramMb = 256;
    xs::CoreConfig coreCfg = xs::CoreConfig::nh();

    /** Test hook: a forked worker dies (_exit(42)) on the slice with
     *  this index, so tests can pin crash isolation. */
    size_t crashSliceForTest = SIZE_MAX;
};

/** One evaluated slice (measurement window only, warmup excluded). */
struct SliceResult
{
    bool ok = false;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    /** Window delta of the full SoC tree ("core0.*", "mem.*"). */
    obs::CounterSnapshot counters;
};

struct SampleReport
{
    std::vector<SliceResult> slices;
    /** Sum of slice counters scaled by integer weight numerators. */
    obs::CounterSnapshot weighted;
    uint64_t weightDen = 0;
    uint64_t weightedCycles = 0; ///< sum weightNum[i] * cycles[i]
    uint64_t weightedInstrs = 0; ///< sum weightNum[i] * instrs[i]
    /** Top-down stack rebuilt from the weighted counters; the bucket
     *  exact-sum invariant survives the weighting (linearity). */
    obs::CpiStack stack;
    unsigned failures = 0;
    /** Parent wall-clock over all slices (reporting only). */
    double wallSec = 0;

    bool allOk() const { return failures == 0; }

    double
    weightedIpc() const
    {
        return weightedCycles
                   ? static_cast<double>(weightedInstrs) /
                         static_cast<double>(weightedCycles)
                   : 0.0;
    }

    double
    weightedCpi() const
    {
        return weightedInstrs
                   ? static_cast<double>(weightedCycles) /
                         static_cast<double>(weightedInstrs)
                   : 0.0;
    }
};

/** Evaluate slice @p i in the calling process. */
SliceResult runSlice(const PackReader &pack, size_t i,
                     const SampleConfig &cfg);

/** Evaluate every slice of @p pack and reduce. */
SampleReport runSampled(const PackReader &pack,
                        const SampleConfig &cfg);

/** Wire format of one slice result (pool blob; exposed for
 *  tests): ok, cycles and instrs, then the counters in the `.mjt`
 *  counter-map encoding (obs::writeCounters). decodeSlice rejects,
 *  with @p r untouched, any blob that is not exactly one result. */
std::vector<uint8_t> encodeSlice(const SliceResult &r);
bool decodeSlice(const std::vector<uint8_t> &blob, SliceResult &r);

} // namespace minjie::sample

#endif // MINJIE_SAMPLE_ENGINE_H
