#include "checkpoint/checkpoint.h"

#include <cstring>

namespace minjie::checkpoint {

namespace {

constexpr uint64_t MAGIC = 0x4d4a434b50543031ULL; // "MJCKPT01"

/** u64 fields in the arch header: magic, pc, x[32], f[32], priv,
 *  resValid, resAddr, instret, csr count, 26 CSRs. */
constexpr size_t N_CSRS = 26;
constexpr size_t ARCH_FIELDS = 1 + 1 + 32 + 32 + 1 + 1 + 1 + 1 + 1 + N_CSRS;

void
put64(std::vector<uint8_t> &v, uint64_t x)
{
    size_t off = v.size();
    v.resize(off + 8);
    std::memcpy(v.data() + off, &x, 8);
}

uint64_t
get64(const uint8_t *data, size_t len, size_t &off)
{
    uint64_t x = 0;
    if (off + 8 <= len) {
        std::memcpy(&x, data + off, 8);
        off += 8;
    }
    return x;
}

uint64_t
rd64(const uint8_t *p)
{
    uint64_t x;
    std::memcpy(&x, p, 8);
    return x;
}

} // namespace

bool
pageIsZero(const uint8_t *data)
{
    // 8 bytes at a time (pages are 8-aligned).
    uint64_t acc = 0;
    for (unsigned i = 0; i < mem::PhysMem::PAGE_SIZE; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, 8);
        acc |= w;
        if (acc)
            return false;
    }
    return true;
}

size_t
archHeaderBytes()
{
    return ARCH_FIELDS * 8;
}

void
serializeArch(std::vector<uint8_t> &v, const iss::ArchState &st)
{
    put64(v, MAGIC);
    put64(v, st.pc);
    for (auto r : st.x)
        put64(v, r);
    for (auto r : st.f)
        put64(v, r);
    put64(v, static_cast<uint64_t>(st.priv));
    put64(v, st.resValid ? 1 : 0);
    put64(v, st.resAddr);
    put64(v, st.instret);

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
    put64(v, std::size(csrs));
    for (auto x : csrs)
        put64(v, x);
}

bool
restoreArch(const uint8_t *data, size_t len, iss::ArchState &st)
{
    // Both checks come before any field is written.
    constexpr size_t CSR_COUNT_OFF = (ARCH_FIELDS - N_CSRS - 1) * 8;
    if (len < archHeaderBytes() || rd64(data) != MAGIC ||
        rd64(data + CSR_COUNT_OFF) != N_CSRS)
        return false;
    size_t off = 8;

    st.pc = get64(data, len, off);
    for (auto &r : st.x)
        r = get64(data, len, off);
    for (auto &r : st.f)
        r = get64(data, len, off);
    st.priv = static_cast<isa::Priv>(get64(data, len, off));
    st.resValid = get64(data, len, off) != 0;
    st.resAddr = get64(data, len, off);
    st.instret = get64(data, len, off);

    off += 8; // CSR count, checked above
    auto &c = st.csr;
    uint64_t *dst[] = {
        &c.mstatus, &c.misa, &c.medeleg, &c.mideleg, &c.mie, &c.mtvec,
        &c.mcounteren, &c.mscratch, &c.mepc, &c.mcause, &c.mtval, &c.mip,
        &c.mcycle, &c.minstret, &c.mhartid, &c.stvec, &c.scounteren,
        &c.sscratch, &c.sepc, &c.scause, &c.stval, &c.satp, &c.pmpcfg0,
        &c.pmpaddr0,
    };
    for (auto *d : dst)
        *d = get64(data, len, off);
    c.fflags = static_cast<uint8_t>(get64(data, len, off));
    c.frm = static_cast<uint8_t>(get64(data, len, off));
    return true;
}

Checkpoint
serialize(const iss::ArchState &st, const mem::PhysMem &mem,
          uint64_t instCount)
{
    constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;
    Checkpoint cp;
    cp.instCount = instCount;
    auto &v = cp.bytes;
    // Sized once for the worst case (no zero page): a multi-megabyte
    // image is never regrown, and the unused tail is never touched.
    v.reserve(archHeaderBytes() + 8 + mem.allocatedPages() * (8 + PAGE));

    serializeArch(v, st);

    // Memory image: {count, {base, 4096 bytes}*}, zero pages elided —
    // restore() clears the target memory first, so an elided page
    // reads back as zeros without ever being materialized.
    size_t countOff = v.size();
    put64(v, 0);
    uint64_t pages = 0;
    mem.forEachPage([&](Addr base, const uint8_t *data) {
        if (pageIsZero(data))
            return;
        put64(v, base);
        v.insert(v.end(), data, data + PAGE);
        ++pages;
    });
    std::memcpy(v.data() + countOff, &pages, 8);
    return cp;
}

bool
restore(const Checkpoint &cp, iss::ArchState &st, mem::PhysMem &mem)
{
    constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;
    constexpr size_t RECORD = 8 + PAGE;
    const auto &v = cp.bytes;
    size_t off = archHeaderBytes();
    if (v.size() < off + 8)
        return false;
    // The page count is untrusted: bound it by division, then demand
    // the exact length, so no product or sum below can wrap.
    uint64_t pages = rd64(v.data() + off);
    off += 8;
    size_t room = v.size() - off;
    if (pages > room / RECORD || room != pages * RECORD)
        return false;
    for (uint64_t p = 0; p < pages; ++p) {
        Addr base = rd64(v.data() + off + p * RECORD);
        if ((base & mem::PhysMem::PAGE_MASK) != 0 ||
            !mem.contains(base, PAGE))
            return false;
    }
    if (!restoreArch(v.data(), v.size(), st))
        return false;

    mem.clear();
    for (uint64_t p = 0; p < pages; ++p, off += RECORD)
        mem.load(rd64(v.data() + off), v.data() + off + 8, PAGE);
    return true;
}

} // namespace minjie::checkpoint
