#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

void
Report::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok)
        fail(what);
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const minjie::workload::ProxySpec &
findProxy(const std::string &name)
{
    for (const auto *suite : {&minjie::workload::specIntSuite(),
                              &minjie::workload::specFpSuite()})
        for (const auto &s : *suite)
            if (name == s.name)
                return s;
    throw std::runtime_error("unknown proxy " + name);
}

Tracer::Tracer(bool on) : on_(on), baseNs_(nowNs())
{
    runLabels_.push_back("benchmark");
}

uint64_t
Tracer::newRun(const std::string &label)
{
    if (!on_)
        return 0;
    runLabels_.push_back(label);
    return runLabels_.size() - 1;
}

size_t
Tracer::open(const char *name, uint64_t run, uint64_t startNs)
{
    if (!on_)
        return NONE;
    int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back({name, startNs, startNs, parent, run});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::close(size_t idx, uint64_t endNs)
{
    if (idx == NONE)
        return;
    spans_[idx].endNs = endNs;
    // Spans close innermost first; tolerate an out-of-order close by
    // dropping everything opened after it.
    while (!open_.empty()) {
        size_t top = open_.back();
        open_.pop_back();
        if (top == idx)
            break;
    }
}

bool
Tracer::writeChrome(const std::string &path, const std::string &workload,
                    uint64_t seed) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":"
                 "\"%s\",\"seed\":%llu,\"runs\":[",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    for (size_t i = 0; i < runLabels_.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? "," : "", runLabels_[i].c_str());
    std::fprintf(f, "]},\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
            "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%lld,"
            "\"run\":%llu}}",
            i ? "," : "", s.name,
            static_cast<double>(s.startNs - baseNs_) / 1e3,
            static_cast<double>(s.endNs - s.startNs) / 1e3, i,
            static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.run));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(Tracer &t, const char *name, uint64_t run)
    : t_(t), startNs_(nowNs())
{
    idx_ = t_.open(name, run, startNs_);
}

Span::~Span()
{
    end();
}

double
Span::end()
{
    if (sec_ < 0) {
        uint64_t endNs = nowNs();
        t_.close(idx_, endNs);
        sec_ = static_cast<double>(endNs - startNs_) / 1e9;
    }
    return sec_;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
sumOfMedians(const std::vector<std::vector<double>> &perUnit)
{
    double sum = 0;
    for (const auto &samples : perUnit)
        sum += median(samples);
    return sum;
}

namespace {

double
perInst(const minjie::obs::CounterSnapshot &s, const std::string &key,
        uint64_t instrs, double scale)
{
    return instrs ? scale * static_cast<double>(s.get(key)) /
                        static_cast<double>(instrs)
                  : 0.0;
}

void
setSim(Report &rep, const std::string &name, double v,
       const std::string &unit)
{
    rep.sim[name] = {v, unit};
    rep.layer[name] = {v, unit};
}

} // namespace

void
reportDut(Report &rep, const minjie::obs::CounterSnapshot &snap,
          const std::string &corePrefix, const std::string &memPrefix)
{
    uint64_t instrs = snap.get(corePrefix + ".instrs");
    static const std::pair<const char *, const char *> buckets[] = {
        {"retiring", "retiring"},
        {"frontend", "frontend"},
        {"bad_spec", "bad_speculation"},
        {"backend_mem", "backend_memory"},
        {"backend_core", "backend_core"},
    };
    for (const auto &[name, key] : buckets)
        setSim(rep, std::string("dut.cpi.") + name,
               perInst(snap, corePrefix + ".topdown." + key, instrs, 1.0),
               "cycles/inst");
    setSim(rep, "dut.branch_mpki",
           perInst(snap, corePrefix + ".branch_mispredicts", instrs,
                   1000.0),
           "1/kinst");
    if (memPrefix.empty())
        return;
    setSim(rep, "uarch.l1d_mpki",
           perInst(snap, memPrefix + ".L1D.0.misses", instrs, 1000.0),
           "1/kinst");
    setSim(rep, "uarch.l2_mpki",
           perInst(snap, memPrefix + ".L2.0.misses", instrs, 1000.0),
           "1/kinst");
    setSim(rep, "uarch.l3_mpki",
           perInst(snap, memPrefix + ".L3.misses", instrs, 1000.0),
           "1/kinst");
}

Capacity
calibrate()
{
    // Fixed integer kernel: a xorshift chain the compiler cannot fold.
    auto kernel = [](uint64_t seed) {
        uint64_t x = seed | 1;
        for (int i = 0; i < 15'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        return x;
    };
    Capacity c;
    c.cores = std::max(1u, std::thread::hardware_concurrency());
    std::vector<uint64_t> sink(c.cores);

    // Idle virtual CPUs can take a few hundred milliseconds to get a
    // physical core back, so keep measuring for a second and report the
    // last reading; this also warms the host up for the workload.
    uint64_t start = nowNs();
    for (uint64_t rep = 1; nowNs() - start < 1'000'000'000; ++rep) {
        uint64_t t0 = nowNs();
        sink[0] += kernel(rep);
        double alone = static_cast<double>(nowNs() - t0);

        std::vector<double> each(c.cores);
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < c.cores; ++i)
            pool.emplace_back([&, i] {
                uint64_t s = nowNs();
                sink[i] += kernel(i + 2);
                each[i] = static_cast<double>(nowNs() - s);
            });
        for (auto &t : pool)
            t.join();
        double slowest = *std::max_element(each.begin(), each.end());
        c.perThread = slowest > 0 ? alone / slowest : 0;
    }
    c.effectiveCores = c.perThread * c.cores;
    uint64_t keep = 0;
    for (uint64_t s : sink)
        keep ^= s;
    // Printed so the kernel's result is observable and not elided.
    std::fprintf(stderr, "calibration checksum %llx\n",
                 static_cast<unsigned long long>(keep));
    return c;
}

void
resetPeakRss()
{
    // "5" resets the peak-RSS counter (Documentation/filesystems/proc).
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double
peakRssMib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    long kb = -1;
    while (f && std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    if (f)
        std::fclose(f);
    if (kb < 0) {
        rusage self{};
        getrusage(RUSAGE_SELF, &self);
        kb = self.ru_maxrss;
    }
    return static_cast<double>(kb) / 1024.0;
}

double
childPeakRssMib()
{
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

} // namespace perfbench
