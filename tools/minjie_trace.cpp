/**
 * @file
 * minjie-trace: the observability front door for .mjt artifacts.
 *
 *   minjie-trace report run.mjt
 *   minjie-trace topdown run.mjt
 *   minjie-trace diff before.mjt after.mjt
 *   minjie-trace chrome run.mjt run.json
 *
 * Artifacts come from `minjie-sim --trace FILE`, which runs one
 * workload with the counter tree and the ring-buffer tracer attached.
 * `report` renders the counter tree, the Figure 15 ready distribution
 * and the top-down CPI stack; `diff` compares two runs counter by
 * counter; `chrome` converts an artifact to Chrome trace_event JSON
 * for chrome://tracing or ui.perfetto.dev.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/serialize.h"
#include "obs/topdown.h"

using namespace minjie;

namespace {

void
usage()
{
    std::printf(
        "minjie-trace <report|topdown|diff|chrome> ARTIFACT...\n"
        "report/topdown:  minjie-trace report RUN.mjt\n"
        "diff:            minjie-trace diff A.mjt B.mjt\n"
        "chrome:          minjie-trace chrome RUN.mjt [OUT.json]\n"
        "(record a RUN.mjt with minjie-sim --trace RUN.mjt)\n");
}

bool
readFile(const std::string &path, std::string &bytes)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    f.close();
    return static_cast<bool>(f);
}

bool
loadArtifact(const std::string &path, obs::RunArtifact &art)
{
    std::string bytes;
    if (!readFile(path, bytes)) {
        std::fprintf(stderr, "minjie-trace: cannot read %s\n",
                     path.c_str());
        return false;
    }
    if (!obs::parseMjt(bytes, art)) {
        std::fprintf(stderr, "minjie-trace: %s is not a .mjt artifact\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** Core prefixes ("core0", "dut", ...) that carry top-down buckets. */
std::vector<std::string>
topdownPrefixes(const obs::CounterSnapshot &snap)
{
    std::vector<std::string> out;
    const std::string leaf = ".topdown.retiring";
    for (const auto &[k, v] : snap.values) {
        if (k.size() > leaf.size() &&
            k.compare(k.size() - leaf.size(), leaf.size(), leaf) == 0)
            out.push_back(k.substr(0, k.size() - leaf.size()));
    }
    return out;
}

void
printTopdown(const obs::RunArtifact &art)
{
    for (const auto &prefix : topdownPrefixes(art.counters)) {
        obs::CpiStack stack =
            obs::CpiStack::fromCounters(art.counters, prefix);
        std::string title = art.runLabel.empty()
                                ? prefix
                                : art.runLabel + " " + prefix;
        std::printf("%s", stack.table(title).c_str());
    }
}

void
printReadyHist(const obs::CounterSnapshot &snap,
               const std::string &prefix)
{
    uint64_t samples = snap.get(prefix + ".ready_hist.samples");
    if (!samples)
        return;
    std::printf("ready-instruction distribution (%s, Figure 15):\n",
                prefix.c_str());
    for (unsigned b = 0;; ++b) {
        std::string key =
            prefix + ".ready_hist.bucket" + std::to_string(b);
        if (!snap.has(key))
            break;
        uint64_t v = snap.get(key);
        double pct = 100.0 * static_cast<double>(v) /
                     static_cast<double>(samples);
        std::printf("  %2u%s %10llu  %5.1f%%  ", b,
                    b == 8 ? "+" : " ",
                    static_cast<unsigned long long>(v), pct);
        for (unsigned i = 0; i < static_cast<unsigned>(pct * 0.4); ++i)
            std::printf("#");
        std::printf("\n");
    }
}

int
cmdReport(const std::string &path)
{
    obs::RunArtifact art;
    if (!loadArtifact(path, art))
        return 2;

    std::printf("run: %s\n", art.runLabel.c_str());
    std::printf("counters (%zu):\n", art.counters.values.size());
    for (const auto &[k, v] : art.counters.values)
        std::printf("  %-44s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(v));

    std::printf("trace: %zu events\n", art.events.size());
    for (const auto &prefix : topdownPrefixes(art.counters))
        printReadyHist(art.counters, prefix);
    printTopdown(art);
    return 0;
}

int
cmdTopdown(const std::string &path)
{
    obs::RunArtifact art;
    if (!loadArtifact(path, art))
        return 2;
    printTopdown(art);
    return 0;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB)
{
    obs::RunArtifact a, b;
    if (!loadArtifact(pathA, a) || !loadArtifact(pathB, b))
        return 2;

    std::printf("diff: %s (A) vs %s (B)\n", a.runLabel.c_str(),
                b.runLabel.c_str());
    obs::CounterSnapshot all = a.counters;
    all.merge(b.counters); // union of keys (values unused below)
    unsigned changed = 0;
    for (const auto &[k, unused] : all.values) {
        (void)unused;
        uint64_t va = a.counters.get(k);
        uint64_t vb = b.counters.get(k);
        if (va == vb)
            continue;
        ++changed;
        int64_t d = static_cast<int64_t>(vb) - static_cast<int64_t>(va);
        std::printf("  %-44s %12llu -> %-12llu (%+lld)\n", k.c_str(),
                    static_cast<unsigned long long>(va),
                    static_cast<unsigned long long>(vb),
                    static_cast<long long>(d));
    }
    std::printf("%u counters differ\n", changed);
    return 0;
}

int
cmdChrome(const std::string &inPath, const std::string &outPath)
{
    obs::RunArtifact art;
    if (!loadArtifact(inPath, art))
        return 2;
    std::string json = obs::toChromeJson(art);
    if (outPath.empty() || outPath == "-") {
        std::printf("%s\n", json.c_str());
        return 0;
    }
    if (!writeFile(outPath, json)) {
        std::fprintf(stderr, "minjie-trace: cannot write %s\n",
                     outPath.c_str());
        return 2;
    }
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];

    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }

    std::vector<std::string> positional(argv + 2, argv + argc);
    if (cmd == "report" && positional.size() == 1)
        return cmdReport(positional[0]);
    if (cmd == "topdown" && positional.size() == 1)
        return cmdTopdown(positional[0]);
    if (cmd == "diff" && positional.size() == 2)
        return cmdDiff(positional[0], positional[1]);
    if (cmd == "chrome" &&
        (positional.size() == 1 || positional.size() == 2))
        return cmdChrome(positional[0],
                         positional.size() > 1 ? positional[1] : "");

    usage();
    return 2;
}
