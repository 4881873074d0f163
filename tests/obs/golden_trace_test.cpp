/**
 * Golden-trace regression: the whole observability pipeline — run,
 * collect, trace, serialize — is a pure function of the workload, so
 * repeating a run reproduces the .mjt artifact byte for byte.
 */

#include <gtest/gtest.h>

#include "obs/collect.h"
#include "obs/serialize.h"
#include "workload/programs.h"
#include "xiangshan/soc.h"

namespace {

using namespace minjie;
using namespace minjie::obs;
namespace wl = minjie::workload;

/** One full traced run: the in-process twin of `minjie-sim --trace`. */
std::string
recordCoremark()
{
    xs::Soc soc(xs::CoreConfig::nh());
    wl::Program prog = wl::coremarkProxy(20);
    soc.loadProgram(prog);

    TraceBuffer trace(1024);
    soc.core(0).setTrace(&trace);
    attachCacheTrace(soc.mem(), trace);

    soc.run(500'000);

    RunArtifact art;
    art.runLabel = "coremark@nh";
    CounterGroup root;
    collectSoc(root, soc);
    art.counters = root.snapshot();
    art.events = trace.events();
    return serializeMjt(art);
}

TEST(GoldenTrace, TracedRunIsByteIdenticalWhenRepeated)
{
    std::string first = recordCoremark();
    std::string second = recordCoremark();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);

    RunArtifact art;
    ASSERT_TRUE(parseMjt(first, art));
    EXPECT_FALSE(art.counters.values.empty());
    EXPECT_FALSE(art.events.empty());
}

} // namespace
