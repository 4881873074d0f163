/**
 * @file
 * Wall-clock stopwatch used by the LightSSS / interpreter benchmarks,
 * and the per-phase cost (wall time, minor page faults) the tools print.
 */

#ifndef MINJIE_COMMON_CLOCK_H
#define MINJIE_COMMON_CLOCK_H

#include <cstdint>

namespace minjie {

/** Monotonic wall-clock stopwatch with microsecond resolution. */
class Stopwatch
{
  public:
    Stopwatch() { reset(); }

    /** Restart timing from now. */
    void reset();

    /** Microseconds elapsed since the last reset. */
    uint64_t elapsedUs() const;

    /** Seconds elapsed since the last reset. */
    double elapsedSec() const;

  private:
    uint64_t startNs_ = 0;
};

/** Current monotonic time in nanoseconds. */
uint64_t monotonicNs();

/** Minor page faults this process has taken so far (getrusage), plus
 *  with @p children those of its reaped children (forked workers). */
uint64_t minorFaults(bool children = false);

/** What one phase of a run cost: wall seconds and minor page faults of
 *  this process and its reaped children. */
struct PhaseCost
{
    double sec = 0;
    uint64_t faults = 0;
};

/** Measures one phase, from construction to end(). */
class PhaseMeter
{
  public:
    PhaseCost
    end() const
    {
        return {sw_.elapsedSec(), minorFaults(true) - faults_};
    }

  private:
    Stopwatch sw_;
    uint64_t faults_ = minorFaults(true);
};

} // namespace minjie

#endif // MINJIE_COMMON_CLOCK_H
