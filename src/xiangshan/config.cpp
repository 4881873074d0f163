#include "xiangshan/config.h"

namespace minjie::xs {

using isa::FuType;

namespace {

void
setCommonFus(CoreConfig &c)
{
    c.fuFor(FuType::Alu) = {4, 1, true, 32, 2};
    c.fuFor(FuType::Mul) = {2, 3, true, 16, 1};
    c.fuFor(FuType::Div) = {1, 20, false, 16, 1};
    c.fuFor(FuType::Jmp) = {1, 1, true, 16, 1};
    c.fuFor(FuType::Ldu) = {2, 0, true, 32, 2}; // latency from the D$
    c.fuFor(FuType::Sta) = {2, 1, true, 16, 2};
    c.fuFor(FuType::Std) = {2, 1, true, 16, 2};
    c.fuFor(FuType::Fma) = {4, 5, true, 32, 2}; // cascade FMA, 5 cycles
    c.fuFor(FuType::Fmisc) = {2, 2, true, 16, 1};
    c.fuFor(FuType::Fdiv) = {1, 16, false, 16, 1};
    c.fuFor(FuType::None) = {1, 1, true, 16, 1};
}

} // namespace

CoreConfig
CoreConfig::yqh()
{
    CoreConfig c;
    c.name = "YQH";
    c.ubtbEntries = 32;
    c.btbEntries = 2048;
    c.tageEntries = 16384;
    c.hasIttage = false;
    c.robSize = 192;
    c.lqSize = 64;
    c.sqSize = 48;
    c.intPrf = 160;
    c.fpPrf = 160;
    c.fusion = false;
    c.moveElim = false;
    c.splitStaStd = false; // YQH has a unified ST pipeline
    setCommonFus(c);
    c.fuFor(isa::FuType::Sta) = {1, 1, true, 16, 1};
    c.fuFor(isa::FuType::Std) = {1, 1, true, 16, 1};

    // Memory system: 16KB L1I + 128KB L1+ + 32KB L1D + 1MB inclusive L2.
    c.mem.l1i = {16 * 1024, 4, 1, 64, false, 8};
    c.mem.l1d = {32 * 1024, 8, 2, 64, false, 8};
    c.mem.l1plus = uarch::CacheCfg{128 * 1024, 8, 6, 64, false, 16};
    c.mem.l2 = {1024 * 1024, 8, 14, 64, true, 16};
    c.mem.l2Private = false;
    c.mem.l3.reset();
    c.mem.itlb = {40, 0, 1};
    c.mem.dtlb = {40, 0, 1};
    c.mem.stlb = {4096, 4, 2};
    return c;
}

CoreConfig
CoreConfig::nh()
{
    CoreConfig c;
    c.name = "NH";
    setCommonFus(c);

    // Memory system: 128KB L1s, private non-inclusive 1MB L2,
    // shared non-inclusive 6MB L3.
    c.mem.l1i = {128 * 1024, 8, 1, 64, false, 8};
    c.mem.l1d = {128 * 1024, 8, 2, 64, false, 16};
    c.mem.l1plus.reset();
    c.mem.l2 = {1024 * 1024, 8, 14, 64, false, 32};
    c.mem.l2Private = true;
    c.mem.l3 = uarch::CacheCfg{6 * 1024 * 1024, 6, 30, 64, false, 32};
    c.mem.itlb = {40, 0, 1};
    c.mem.dtlb = {136, 8, 1}; // 128 direct-mapped + 8 fully-assoc
    c.mem.stlb = {2048, 4, 2};
    return c;
}

CoreConfig
CoreConfig::gem5ish()
{
    CoreConfig c = nh();
    c.name = "GEM5ish";
    // The open-source-GEM5-style model: same headline window sizes but
    // a weaker frontend and scheduler, which is where the paper locates
    // the ~30% gap against the real RTL.
    c.ubtbEntries = 32;
    c.hasIttage = false;
    c.mispredictPenalty = 20;
    c.ubtbMissBubble = 4;
    c.fusion = false;
    c.moveElim = false;
    c.fetchWidth = 4;
    for (auto &f : c.fu)
        f.rsIssueWidth = 1;
    c.fuFor(isa::FuType::Ldu).count = 1;
    c.mem.l1d.hitLatency = 4;
    c.mem.l2.hitLatency = 20;
    if (c.mem.l3)
        c.mem.l3->hitLatency = 40;
    return c;
}

std::optional<CoreConfig>
CoreConfig::byName(const std::string &name)
{
    if (name == "nh")
        return nh();
    if (name == "yqh")
        return yqh();
    if (name == "gem5ish")
        return gem5ish();
    return std::nullopt;
}

} // namespace minjie::xs
