#include "campaign/lockstep.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "iss/interp.h"
#include "iss/system.h"
#include "nemu/nemu.h"

namespace minjie::campaign {

using namespace minjie::iss;

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Spike: return "spike";
      case Engine::Dromajo: return "dromajo";
      case Engine::Tci: return "tci";
      case Engine::Nemu: return "nemu";
    }
    return "?";
}

bool
parseEngine(const std::string &name, Engine &out)
{
    if (name == "spike")
        out = Engine::Spike;
    else if (name == "dromajo")
        out = Engine::Dromajo;
    else if (name == "tci")
        out = Engine::Tci;
    else if (name == "nemu")
        out = Engine::Nemu;
    else
        return false;
    return true;
}

namespace {

/** One engine with its private system (DRAM, bus, devices). */
struct EngineBox
{
    System sys{32};
    std::unique_ptr<Interp> interp;
};

std::unique_ptr<EngineBox>
makeEngine(Engine kind, const workload::Program &prog)
{
    auto box = std::make_unique<EngineBox>();
    prog.loadInto(box->sys.dram);
    switch (kind) {
      case Engine::Spike:
        box->interp =
            std::make_unique<SpikeInterp>(box->sys.bus, 0, prog.entry);
        break;
      case Engine::Dromajo:
        box->interp =
            std::make_unique<DromajoInterp>(box->sys.bus, 0, prog.entry);
        break;
      case Engine::Tci:
        box->interp =
            std::make_unique<TciInterp>(box->sys.bus, 0, prog.entry);
        break;
      case Engine::Nemu:
        box->interp = std::make_unique<nemu::Nemu>(
            box->sys.bus, box->sys.dram, 0, prog.entry);
        break;
    }
    return box;
}

/** Post-step corruption of the injected side's destination register. */
void
applyBug(const BugInject &bug, ArchState &st, const isa::DecodedInst &di)
{
    if (di.op != bug.op || di.rd == 0)
        return;
    if (isa::writesFpRd(di.op)) {
        st.f[di.rd] ^= bug.xorMask;
        return;
    }
    if (isa::isStore(di.op) || isa::isCondBranch(di.op))
        return;
    st.setX(di.rd, st.x[di.rd] ^ bug.xorMask);
}

} // namespace

bool
compareMemory(mem::PhysMem &a, mem::PhysMem &b,
              const workload::Program &prog, Divergence &div)
{
    using mem::PhysMem;
    for (const auto &seg : prog.segments) {
        size_t i = 0;
        while (i < seg.bytes.size()) {
            Addr addr = seg.base + i;
            Addr off = addr & PhysMem::PAGE_MASK;
            size_t n = std::min<size_t>(seg.bytes.size() - i,
                                        PhysMem::PAGE_SIZE - off);
            const uint8_t *pa = a.readPage(addr);
            const uint8_t *pb = b.readPage(addr);
            if (pa && pb && std::memcmp(pa + off, pb + off, n) == 0) {
                i += n;
                continue;
            }
            // The chunk differs (or leaves DRAM): find the first byte.
            for (size_t end = i + n; i < end; ++i) {
                uint64_t va = 0, vb = 0;
                a.read(seg.base + i, 1, va);
                b.read(seg.base + i, 1, vb);
                if (va != vb) {
                    div.kind = Divergence::Kind::Memory;
                    div.reg = static_cast<unsigned>(i);
                    div.pc = seg.base + i; // diverging address, not a pc
                    div.valA = va;
                    div.valB = vb;
                    return false;
                }
            }
        }
    }
    return true;
}

std::string
Divergence::signature() const
{
    const char *kindName = "none";
    switch (kind) {
      case Kind::XReg: kindName = "xreg"; break;
      case Kind::FReg: kindName = "freg"; break;
      case Kind::Fflags: kindName = "fflags"; break;
      case Kind::Pc: kindName = "pc"; break;
      case Kind::Memory: kindName = "mem"; break;
      case Kind::Timeout: kindName = "timeout"; break;
      case Kind::None: break;
    }
    if (kind == Kind::Memory || kind == Kind::Timeout ||
        kind == Kind::None)
        return kindName;
    return std::string(kindName) + ":" + isa::opClassName(op) + ":" +
           isa::opName(op);
}

std::string
Divergence::describe() const
{
    if (!diverged())
        return "no divergence";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s at step %llu pc 0x%llx (%s) reg %u: A=0x%llx"
                  " B=0x%llx",
                  signature().c_str(),
                  static_cast<unsigned long long>(step),
                  static_cast<unsigned long long>(pc), isa::opName(op),
                  reg, static_cast<unsigned long long>(valA),
                  static_cast<unsigned long long>(valB));
    return buf;
}

LockstepResult
runLockstep(Engine a, Engine b, const workload::Program &prog,
            uint64_t maxSteps, const BugInject *bug)
{
    auto ea = makeEngine(a, prog);
    auto eb = makeEngine(b, prog);
    LockstepResult res;
    Divergence &d = res.div;

    // Divergence::op is the op of the last step, decoded from that
    // step's pre-step word only once a result is reported.
    uint32_t raw = 0;
    auto report = [&]() -> LockstepResult & {
        if (res.steps)
            d.op = isa::decode(raw).op;
        return res;
    };

    for (uint64_t step = 0; step < maxSteps; ++step) {
        if (ea->sys.simctrl.exited() && eb->sys.simctrl.exited()) {
            res.exited = true;
            d.step = step;
            compareMemory(ea->sys.dram, eb->sys.dram, prog, d);
            return report();
        }

        ArchState &sa = ea->interp->state();
        ArchState &sb = eb->interp->state();
        Addr pc = sa.pc;
        uint64_t word = 0;
        ea->sys.dram.read(pc, 4, word);
        raw = static_cast<uint32_t>(word);

        // run(1) is virtual: NEMU executes through its chained
        // threaded-code engine, the baseline engines through step().
        iss::RunResult ra = ea->interp->run(1);
        iss::RunResult rb = eb->interp->run(1);
        ++res.steps;

        if (bug && bug->enabled &&
            !(bug->side == 0 ? ra : rb).trapped)
            applyBug(*bug, bug->side == 0 ? sa : sb, isa::decode(raw));

        d.step = step;
        d.pc = pc;
        if (sa.pc != sb.pc) {
            d.kind = Divergence::Kind::Pc;
            d.valA = sa.pc;
            d.valB = sb.pc;
            return report();
        }
        if (std::memcmp(sa.x, sb.x, sizeof(sa.x)) != 0) {
            d.kind = Divergence::Kind::XReg;
            for (unsigned r = 0; r < 32; ++r) {
                if (sa.x[r] != sb.x[r]) {
                    d.reg = r;
                    d.valA = sa.x[r];
                    d.valB = sb.x[r];
                    break;
                }
            }
            return report();
        }
        if (std::memcmp(sa.f, sb.f, sizeof(sa.f)) != 0) {
            d.kind = Divergence::Kind::FReg;
            for (unsigned r = 0; r < 32; ++r) {
                if (sa.f[r] != sb.f[r]) {
                    d.reg = r;
                    d.valA = sa.f[r];
                    d.valB = sb.f[r];
                    break;
                }
            }
            return report();
        }
        if (sa.csr.fflags != sb.csr.fflags) {
            d.kind = Divergence::Kind::Fflags;
            d.valA = sa.csr.fflags;
            d.valB = sb.csr.fflags;
            return report();
        }
    }

    d.kind = Divergence::Kind::Timeout;
    d.step = res.steps;
    return report();
}

} // namespace minjie::campaign
