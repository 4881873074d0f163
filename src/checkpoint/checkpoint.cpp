#include "checkpoint/checkpoint.h"

#include "common/bytes.h"

namespace minjie::checkpoint {

namespace {

constexpr uint64_t MAGIC = 0x4d4a434b50543031ULL; // "MJCKPT01"

/** u64 fields in the arch blob: magic, pc, x[32], f[32], priv,
 *  resValid, resAddr, instret, csr count, 26 CSRs. */
constexpr size_t N_CSRS = 26;
constexpr size_t ARCH_FIELDS = 1 + 1 + 32 + 32 + 1 + 1 + 1 + 1 + 1 + N_CSRS;

} // namespace

size_t
archHeaderBytes()
{
    return ARCH_FIELDS * 8;
}

void
serializeArch(std::vector<uint8_t> &v, const iss::ArchState &st)
{
    ByteWriter w(v);
    w.u64(MAGIC);
    w.u64(st.pc);
    for (auto r : st.x)
        w.u64(r);
    for (auto r : st.f)
        w.u64(r);
    w.u64(static_cast<uint64_t>(st.priv));
    w.u64(st.resValid ? 1 : 0);
    w.u64(st.resAddr);
    w.u64(st.instret);

    // CSR block (Figure 9: the restorable machine/supervisor subset).
    const auto &c = st.csr;
    const uint64_t csrs[] = {
        c.mstatus, c.misa, c.medeleg, c.mideleg, c.mie, c.mtvec,
        c.mcounteren, c.mscratch, c.mepc, c.mcause, c.mtval, c.mip,
        c.mcycle, c.minstret, c.mhartid, c.stvec, c.scounteren,
        c.sscratch, c.sepc, c.scause, c.stval, c.satp, c.pmpcfg0,
        c.pmpaddr0, static_cast<uint64_t>(c.fflags),
        static_cast<uint64_t>(c.frm),
    };
    static_assert(std::size(csrs) == N_CSRS);
    w.u64(std::size(csrs));
    for (auto x : csrs)
        w.u64(x);
}

bool
restoreArch(const uint8_t *data, size_t len, iss::ArchState &st)
{
    // Decode into a copy: st changes only once the blob checks out.
    ByteReader r(data, len);
    if (r.u64() != MAGIC)
        return false;
    iss::ArchState next = st;
    next.pc = r.u64();
    for (auto &x : next.x)
        x = r.u64();
    for (auto &f : next.f)
        f = r.u64();
    uint64_t priv = r.u64();
    if (priv != 0 && priv != 1 && priv != 3) // U, S or M
        return false;
    next.priv = static_cast<isa::Priv>(priv);
    next.resValid = r.u64() != 0;
    next.resAddr = r.u64();
    next.instret = r.u64();
    if (r.u64() != N_CSRS)
        return false;

    auto &c = next.csr;
    uint64_t *dst[] = {
        &c.mstatus, &c.misa, &c.medeleg, &c.mideleg, &c.mie, &c.mtvec,
        &c.mcounteren, &c.mscratch, &c.mepc, &c.mcause, &c.mtval, &c.mip,
        &c.mcycle, &c.minstret, &c.mhartid, &c.stvec, &c.scounteren,
        &c.sscratch, &c.sepc, &c.scause, &c.stval, &c.satp, &c.pmpcfg0,
        &c.pmpaddr0,
    };
    for (auto *d : dst)
        *d = r.u64();
    c.fflags = static_cast<uint8_t>(r.u64());
    c.frm = static_cast<uint8_t>(r.u64());
    if (!r.ok())
        return false;
    st = next;
    return true;
}

} // namespace minjie::checkpoint
