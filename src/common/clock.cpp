#include "common/clock.h"

#include <ctime>

#include <sys/resource.h>

namespace minjie {

uint64_t
monotonicNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
}

void
Stopwatch::reset()
{
    startNs_ = monotonicNs();
}

uint64_t
Stopwatch::elapsedUs() const
{
    return (monotonicNs() - startNs_) / 1000;
}

double
Stopwatch::elapsedSec() const
{
    return static_cast<double>(monotonicNs() - startNs_) * 1e-9;
}

uint64_t
minorFaults(bool children)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    uint64_t n = static_cast<uint64_t>(ru.ru_minflt);
    if (children) {
        getrusage(RUSAGE_CHILDREN, &ru);
        n += static_cast<uint64_t>(ru.ru_minflt);
    }
    return n;
}

} // namespace minjie
