/**
 * @file
 * perfbench: runs one benchmark workload and prints one JSON object.
 *
 *   perfbench --workload cosim|sampled|campaign --seed N --seconds S
 *             --trace 0|1 [--workers N] [--trace-out FILE]
 *
 * With --trace 0 the object carries the end-to-end metrics, with
 * --trace 1 the per-layer metrics (and the spans go to --trace-out as
 * Chrome trace_event JSON). Both carry "sim", the simulated values
 * that must repeat exactly, and "host", the capacity calibration.
 * run.py builds this binary and turns its output into the benchmark's
 * result line.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

using namespace perfbench;

namespace {

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metrics(const std::map<std::string, Metric> &m)
{
    std::string out = "{";
    for (const auto &[name, metric] : m) {
        if (out.size() > 1)
            out += ",";
        out += quote(name) + ":{\"value\":" + number(metric.value) +
               ",\"unit\":" + quote(metric.unit) + "}";
    }
    return out + "}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload cosim|sampled|campaign "
                 "--seed N --seconds S --trace 0|1 [--workers N] "
                 "[--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string val = argv[++i];
        if (arg == "--workload")
            opt.workload = val;
        else if (arg == "--seed")
            opt.seed = std::stoull(val);
        else if (arg == "--seconds")
            opt.seconds = std::stod(val);
        else if (arg == "--trace")
            opt.trace = val == "1";
        else if (arg == "--workers")
            opt.workers = static_cast<unsigned>(std::stoul(val));
        else if (arg == "--trace-out")
            opt.traceOut = val;
        else
            return usage();
    }
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    if (opt.workers == 0)
        opt.workers = std::min(4u, cores);

    Capacity cap = calibrate();
    Tracer tracer(opt.trace);
    Report rep;
    if (opt.workload == "cosim")
        rep = runCosim(opt, tracer);
    else if (opt.workload == "sampled")
        rep = runSampledFlow(opt, tracer);
    else if (opt.workload == "campaign")
        rep = runCampaignFlow(opt, tracer);
    else
        return usage();
    // The median over units of work holds steady across seeds; the
    // peak of one forked child (a snapshot or slice worker) is set by a
    // single program and reported on its own.
    rep.e2e["peak_rss_mb"] = {median(rep.unitRssMib), "MiB"};
    rep.layer["host.child_peak_rss_mb"] = {childPeakRssMib(), "MiB"};

    if (opt.trace && !opt.traceOut.empty() &&
        !tracer.writeChrome(opt.traceOut, opt.workload, opt.seed)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.traceOut.c_str());
        return 1;
    }

    std::string failures = "[";
    for (const auto &f : rep.failures)
        failures += (failures.size() > 1 ? "," : "") + quote(f);
    failures += "]";
    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"workers\":%u,\"attempted\":%llu,"
        "\"failed\":%llu,\"failures\":%s,\"metrics\":%s,\"sim\":%s,"
        "\"host\":{\"cores\":%u,\"per_thread\":%s,\"effective_cores\":%s,"
        "\"build\":%s}}\n",
        quote(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed), opt.workers,
        static_cast<unsigned long long>(rep.attempted),
        static_cast<unsigned long long>(rep.failed), failures.c_str(),
        metrics(opt.trace ? rep.layer : rep.e2e).c_str(),
        metrics(rep.sim).c_str(), cap.cores, number(cap.perThread).c_str(),
        number(cap.effectiveCores).c_str(), quote(PERFBENCH_BUILD_TYPE).c_str());
    return 0;
}
