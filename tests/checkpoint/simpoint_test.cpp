#include <gtest/gtest.h>

#include "checkpoint/simpoint.h"

namespace {

using namespace minjie;
using namespace minjie::checkpoint;

Bbv
makeBbv(std::initializer_list<std::pair<Addr, uint64_t>> items)
{
    Bbv b;
    for (auto &[pc, n] : items)
        b[pc] = n;
    return b;
}

TEST(SimPoint, TwoPhasesSeparate)
{
    // Phase A executes blocks {X,Y}; phase B executes {P,Q}. k=2 must
    // separate them and weight 50/50.
    std::vector<Bbv> bbvs;
    for (int i = 0; i < 10; ++i)
        bbvs.push_back(makeBbv({{0x1000, 800}, {0x2000, 200}}));
    for (int i = 0; i < 10; ++i)
        bbvs.push_back(makeBbv({{0x9000, 500}, {0xa000, 500}}));

    auto sp = simpoint(bbvs, 2);
    ASSERT_EQ(sp.intervals.size(), 2u);
    EXPECT_EQ(sp.weightDen(), 20u);
    EXPECT_EQ(sp.sizes, (std::vector<uint64_t>{10, 10}));
    // Assignments must be phase-pure.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(sp.assignment[i], sp.assignment[0]);
    for (int i = 10; i < 20; ++i)
        EXPECT_EQ(sp.assignment[i], sp.assignment[10]);
    EXPECT_NE(sp.assignment[0], sp.assignment[10]);
}

TEST(SimPoint, RepresentativeBelongsToItsCluster)
{
    std::vector<Bbv> bbvs;
    for (int i = 0; i < 6; ++i)
        bbvs.push_back(makeBbv({{0x1000, 100 + i}}));
    for (int i = 0; i < 6; ++i)
        bbvs.push_back(makeBbv({{0x8000, 100 + i}}));
    auto sp = simpoint(bbvs, 2);
    for (size_t c = 0; c < sp.intervals.size(); ++c)
        EXPECT_EQ(sp.assignment[sp.intervals[c]], c);
}

TEST(SimPoint, KClampedToIntervalCount)
{
    std::vector<Bbv> bbvs = {makeBbv({{0x1000, 10}}),
                             makeBbv({{0x2000, 10}})};
    auto sp = simpoint(bbvs, 10);
    EXPECT_LE(sp.intervals.size(), 2u);
}

TEST(SimPoint, WeightsSumToOne)
{
    Rng rng(0x51);
    std::vector<Bbv> bbvs;
    for (int i = 0; i < 40; ++i) {
        Bbv b;
        for (int j = 0; j < 8; ++j)
            b[0x1000 + rng.below(16) * 64] = rng.range(1, 1000);
        bbvs.push_back(std::move(b));
    }
    auto sp = simpoint(bbvs, 5);
    // Exact integers: the cluster sizes sum to the interval count.
    uint64_t sum = 0;
    for (uint64_t n : sp.sizes)
        sum += n;
    EXPECT_EQ(sum, sp.weightDen());
    EXPECT_EQ(sp.weightDen(), 40u);
}

TEST(SimPoint, EmptyInputHandled)
{
    std::vector<Bbv> none;
    auto sp = simpoint(none, 4);
    EXPECT_TRUE(sp.intervals.empty());
}

TEST(SimPoint, ClusteringInvariantUnderInsertionOrder)
{
    // Bbv is a sorted map precisely so the float accumulation in the
    // random projection never depends on how the profile was built.
    Rng rng(0x7a);
    std::vector<Bbv> fwd, rev;
    for (int i = 0; i < 12; ++i) {
        std::vector<std::pair<Addr, uint64_t>> items;
        for (int j = 0; j < 10; ++j)
            items.push_back({0x1000 + rng.below(64) * 4,
                             rng.range(1, 500)});
        Bbv a, b;
        for (const auto &[pc, n] : items)
            a[pc] += n;
        for (auto it = items.rbegin(); it != items.rend(); ++it)
            b[it->first] += it->second;
        fwd.push_back(std::move(a));
        rev.push_back(std::move(b));
    }
    auto sa = simpoint(fwd, 3);
    auto sb = simpoint(rev, 3);
    EXPECT_EQ(sa.intervals, sb.intervals);
    EXPECT_EQ(sa.assignment, sb.assignment);
    EXPECT_EQ(sa.sizes, sb.sizes);
}

} // namespace
