#include "xiangshan/soc.h"

namespace minjie::xs {

Soc::Soc(const CoreConfig &cfg, unsigned nCores, uint64_t dramMb)
    : sys_(dramMb), cfg_(cfg)
{
    mem_ = std::make_unique<uarch::MemHierarchy>(cfg.mem, nCores);
    for (unsigned c = 0; c < nCores; ++c) {
        cores_.push_back(std::make_unique<Core>(cfg, c, sys_, *mem_,
                                                iss::DRAM_BASE));
        cores_.back()->setHaltFn([this] { return sys_.simctrl.exited(); });
    }
    for (auto &core : cores_)
        corePtrs_.push_back(core.get());
    if (nCores > 1)
        for (auto &core : cores_)
            core->setPeers(&corePtrs_);
}

void
Soc::setEntry(Addr entry)
{
    for (unsigned c = 0; c < cores_.size(); ++c)
        cores_[c]->oracleState().reset(entry, c);
}

Soc::RunResult
Soc::runUntilInstrs(InstCount instrs, Cycle maxCycles)
{
    RunResult r = runWhile(maxCycles, [&](Cycle) {
        return cores_[0]->perf().instrs < instrs;
    });
    if (cores_[0]->perf().instrs >= instrs)
        r.completed = true;
    return r;
}

double
Soc::ipc() const
{
    InstCount instrs = 0;
    Cycle cycles = 0;
    for (const auto &core : cores_) {
        instrs += core->perf().instrs;
        cycles = std::max(cycles, core->perf().cycles);
    }
    return cycles
               ? static_cast<double>(instrs) / static_cast<double>(cycles)
               : 0.0;
}

} // namespace minjie::xs
