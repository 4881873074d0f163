/**
 * @file
 * SimPoint-style interval selection (paper Section III-D3).
 *
 * Basic-block vectors are collected inside the interpreter (one counter
 * per basic block per interval — "it is easy to compute the Basic Block
 * Vector in NEMU"), projected to a low dimension, and clustered with
 * k-means. Each cluster's most central interval becomes a checkpoint
 * whose weight is the cluster's share of execution.
 */

#ifndef MINJIE_CHECKPOINT_SIMPOINT_H
#define MINJIE_CHECKPOINT_SIMPOINT_H

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "nemu/nemu.h"

namespace minjie::checkpoint {

/** One interval's basic-block profile, as NEMU's threaded engine
 *  collects it (Nemu::profileBbvs). */
using Bbv = nemu::Bbv;

/**
 * Result of clustering: the selected intervals and their exact integer
 * weights, sizes[i] / weightDen().
 */
struct SimPoints
{
    std::vector<unsigned> intervals; ///< representative interval indices
    std::vector<uint64_t> sizes;     ///< cluster sizes (weight numerators)
    std::vector<unsigned> assignment;///< interval -> cluster

    /** Common weight denominator: the interval count. */
    uint64_t weightDen() const { return assignment.size(); }
};

/**
 * Cluster @p bbvs into at most @p maxK phases.
 *
 * @param dims   random-projection dimensionality (SimPoint uses 15)
 * @param seed   deterministic seed for projection and seeding
 */
SimPoints simpoint(const std::vector<Bbv> &bbvs, unsigned maxK,
                   unsigned dims = 15, uint64_t seed = 1);

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_SIMPOINT_H
