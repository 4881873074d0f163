/**
 * Sv39 paging under full co-simulation: the cycle model (with its
 * timing TLBs and page-walk latencies) against the NEMU REF, checking
 * every commit through the satp write, the privilege drop, and the
 * virtually-addressed kernel.
 */

#include <gtest/gtest.h>

#include "difftest/difftest.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::difftest;
namespace wl = minjie::workload;

TEST(Sv39DiffTest, PagedProgramPasses)
{
    xs::Soc soc(xs::CoreConfig::nh());
    DiffTest dt(soc);
    auto prog = wl::sv39Program();
    dt.loadProgram(prog);

    dt.run(2'000'000);

    EXPECT_TRUE(dt.ok()) << dt.failures().front();
    EXPECT_EQ(soc.system().simctrl.exitCode(), 0u);
    EXPECT_EQ(soc.core(0).oracleState().priv, isa::Priv::S);
    EXPECT_EQ(soc.core(0).oracleState().x[wl::a0], 5050u);
    // The CSR rules were evaluated on the satp/mstatus writes and mret.
    EXPECT_GE(dt.stats().csrChecks, 4u);
    // The timing TLBs saw the translated stream.
    EXPECT_GT(soc.core(0).oracleMmu().stats().pageWalks, 0u);
}

} // namespace
