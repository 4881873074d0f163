#include <gtest/gtest.h>

#include "xiangshan/config.h"

namespace {

using namespace minjie::xs;

TEST(Config, YqhMatchesTable2)
{
    auto c = CoreConfig::yqh();
    EXPECT_EQ(c.ubtbEntries, 32u);
    EXPECT_EQ(c.btbEntries, 2048u);
    EXPECT_EQ(c.tageEntries, 16384u);
    EXPECT_FALSE(c.hasIttage);
    EXPECT_EQ(c.robSize, 192u);
    EXPECT_EQ(c.lqSize, 64u);
    EXPECT_EQ(c.sqSize, 48u);
    EXPECT_EQ(c.intPrf, 160u);
    EXPECT_EQ(c.fpPrf, 160u);
    EXPECT_FALSE(c.fusion);
    EXPECT_FALSE(c.moveElim);
    EXPECT_EQ(c.mem.l1i.sizeBytes, 16u * 1024);
    EXPECT_TRUE(c.mem.l1plus.has_value());
    EXPECT_EQ(c.mem.l1plus->sizeBytes, 128u * 1024);
    EXPECT_EQ(c.mem.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(c.mem.l2.sizeBytes, 1024u * 1024);
    EXPECT_TRUE(c.mem.l2.inclusive);
    EXPECT_FALSE(c.mem.l3.has_value());
    EXPECT_EQ(c.mem.itlb.entries, 40u);
    EXPECT_EQ(c.mem.dtlb.entries, 40u);
    EXPECT_EQ(c.mem.stlb.entries, 4096u);
    EXPECT_EQ(c.fetchWidth, 8u);
    EXPECT_EQ(c.decodeWidth, 6u);
}

TEST(Config, NhMatchesTable2)
{
    auto c = CoreConfig::nh();
    EXPECT_EQ(c.ubtbEntries, 256u);
    EXPECT_EQ(c.btbEntries, 4096u);
    EXPECT_TRUE(c.hasIttage);
    EXPECT_EQ(c.robSize, 256u);
    EXPECT_EQ(c.lqSize, 80u);
    EXPECT_EQ(c.sqSize, 64u);
    EXPECT_EQ(c.intPrf, 192u);
    EXPECT_TRUE(c.fusion);
    EXPECT_TRUE(c.moveElim);
    EXPECT_TRUE(c.splitStaStd);
    EXPECT_EQ(c.mem.l1i.sizeBytes, 128u * 1024);
    EXPECT_EQ(c.mem.l1d.sizeBytes, 128u * 1024);
    EXPECT_FALSE(c.mem.l1plus.has_value());
    EXPECT_FALSE(c.mem.l2.inclusive);
    EXPECT_TRUE(c.mem.l2Private);
    ASSERT_TRUE(c.mem.l3.has_value());
    EXPECT_EQ(c.mem.l3->sizeBytes, 6u * 1024 * 1024);
    EXPECT_EQ(c.mem.l3->ways, 6u);
    EXPECT_EQ(c.mem.dtlb.entries, 136u);
    EXPECT_EQ(c.mem.stlb.entries, 2048u);
}

TEST(Config, Gem5ishIsWeaker)
{
    auto g = CoreConfig::gem5ish();
    auto n = CoreConfig::nh();
    EXPECT_GT(g.mispredictPenalty, n.mispredictPenalty);
    EXPECT_LT(g.fetchWidth, n.fetchWidth);
    EXPECT_FALSE(g.fusion);
    EXPECT_GT(g.mem.l1d.hitLatency, n.mem.l1d.hitLatency);
}

TEST(Config, ExecutionUnitsMatchTable2)
{
    auto c = CoreConfig::nh();
    using minjie::isa::FuType;
    EXPECT_EQ(c.fuFor(FuType::Alu).count, 4u);
    EXPECT_EQ(c.fuFor(FuType::Ldu).count, 2u); // two load pipes
    EXPECT_EQ(c.fuFor(FuType::Fma).count, 4u);
    EXPECT_EQ(c.fuFor(FuType::Fma).latency, 5u); // cascade FMA
    EXPECT_FALSE(c.fuFor(FuType::Div).pipelined);
    EXPECT_FALSE(c.fuFor(FuType::Fdiv).pipelined);
    // NH splits store address/data with 2 units each.
    EXPECT_EQ(c.fuFor(FuType::Sta).count, 2u);
    EXPECT_EQ(c.fuFor(FuType::Std).count, 2u);
    // YQH has a unified single store pipe.
    auto y = CoreConfig::yqh();
    EXPECT_EQ(y.fuFor(FuType::Sta).count, 1u);
}

TEST(Config, ByNameResolvesTheThreePresetsOnly)
{
    EXPECT_EQ(CoreConfig::byName("nh")->name, CoreConfig::nh().name);
    EXPECT_EQ(CoreConfig::byName("yqh")->name, CoreConfig::yqh().name);
    EXPECT_EQ(CoreConfig::byName("gem5ish")->name,
              CoreConfig::gem5ish().name);
    EXPECT_FALSE(CoreConfig::byName("NH"));
    EXPECT_FALSE(CoreConfig::byName("foo"));
}

} // namespace
