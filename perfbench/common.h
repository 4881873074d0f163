/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * report every workload fills, the in-memory span tracer, and small
 * statistics helpers.
 *
 * Host time (wall time of the simulator on this machine) and simulated
 * quantities (what the modelled XiangShan core would do) are kept
 * apart: simulated values also go into Report::sim, which must repeat
 * exactly for a given seed, traced or not, for any worker count.
 */

#ifndef MINJIE_PERFBENCH_COMMON_H
#define MINJIE_PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/counter.h"
#include "workload/programs.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned workers = 0; ///< slice workers / campaign threads
    std::string traceOut; ///< Chrome trace_event JSON (traced run)
};

struct Metric
{
    double value = 0;
    std::string unit;
};

struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, human-readable
    std::map<std::string, Metric> e2e;   ///< untraced run
    std::map<std::string, Metric> layer; ///< traced run
    std::map<std::string, Metric> sim;   ///< simulated, exact
    /** Peak RSS of each unit of work: one program (cosim, sampled)
     *  or one campaign. */
    std::vector<double> unitRssMib;

    void fail(const std::string &why);
    /** Count one checked operation; false ones are failures. */
    void check(bool ok, const std::string &what);
};

/** One recorded span: a timed call into a layer. */
struct SpanRec
{
    const char *name;
    uint64_t startNs;
    uint64_t endNs;
    int64_t parent; ///< index into the span list, -1 at top level
    uint64_t run;   ///< program / slice / job the span belongs to
};

/**
 * Keeps spans in memory while the benchmark runs; writeChrome() dumps
 * them at exit. When off, Span still times its interval (so traced and
 * untraced runs measure the same way) but nothing is recorded.
 */
class Tracer
{
  public:
    explicit Tracer(bool on);

    bool on() const { return on_; }

    /** New run id labelled @p label ("cosim/458.sjeng", ...). */
    uint64_t newRun(const std::string &label);

    size_t open(const char *name, uint64_t run, uint64_t startNs);
    void close(size_t idx, uint64_t endNs);

    /** Chrome trace_event JSON, the layout `minjie-trace chrome`
     *  writes: complete ("X") events in microseconds. */
    bool writeChrome(const std::string &path, const std::string &workload,
                     uint64_t seed) const;

    static constexpr size_t NONE = SIZE_MAX;

  private:
    bool on_;
    uint64_t baseNs_;
    std::vector<SpanRec> spans_;
    std::vector<size_t> open_;
    std::vector<std::string> runLabels_;
};

/** A timed call. end() (or destruction) closes it. */
class Span
{
  public:
    Span(Tracer &t, const char *name, uint64_t run = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close the span; returns its duration in seconds. */
    double end();

  private:
    Tracer &t_;
    size_t idx_;
    uint64_t startNs_;
    double sec_ = -1;
};

uint64_t nowNs();

/** The SPEC proxy named @p name (either suite). */
const minjie::workload::ProxySpec &findProxy(const std::string &name);

double median(std::vector<double> v);
/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double> &v);
/**
 * Sum over units of work (programs, flows) of each unit's median time
 * across rounds. Host interference comes in bursts of a second or two;
 * a burst slows only the units it overlaps, and their medians drop it.
 */
double sumOfMedians(const std::vector<std::vector<double>> &perUnit);

/** Copy the simulated DUT ratios of a core-counter snapshot into
 *  @p rep (sim + layer): CPI stack per instruction, branch MPKI and,
 *  when @p memPrefix is non-empty, L1D/L2/L3 MPKI. */
void reportDut(Report &rep, const minjie::obs::CounterSnapshot &snap,
               const std::string &corePrefix,
               const std::string &memPrefix);

/** Effective cores of this host: N copies of a fixed compute kernel
 *  against one lone copy. */
struct Capacity
{
    unsigned cores = 0;
    double perThread = 0; ///< one copy's speed among N, vs alone
    double effectiveCores = 0;
};
Capacity calibrate();

/** Restart this process's peak-RSS counter (VmHWM) from its current
 *  resident set; a no-op where the kernel does not allow it. */
void resetPeakRss();
/** Peak resident set of this process since the last reset, in MiB. */
double peakRssMib();
/** Peak resident set of the largest reaped child (LightSSS snapshots,
 *  slice workers), in MiB. */
double childPeakRssMib();

Report runCosim(const Options &opt, Tracer &tracer);
Report runSampledFlow(const Options &opt, Tracer &tracer);
Report runCampaignFlow(const Options &opt, Tracer &tracer);

/** Run @p body (given the round index) at least once and until
 *  @p seconds have elapsed. */
template <typename F>
void
forRounds(double seconds, F &&body)
{
    uint64_t start = nowNs();
    for (unsigned r = 0;; ++r) {
        if (r > 0 && static_cast<double>(nowNs() - start) / 1e9 >= seconds)
            break;
        body(r);
    }
}

} // namespace perfbench

#endif // MINJIE_PERFBENCH_COMMON_H
