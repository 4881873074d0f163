#include "iss/mmu.h"

#include "common/bitutil.h"

namespace minjie::iss {

using namespace minjie::isa;

namespace {

// PTE permission bits.
constexpr uint64_t PTE_V = 1 << 0;
constexpr uint64_t PTE_R = 1 << 1;
constexpr uint64_t PTE_W = 1 << 2;
constexpr uint64_t PTE_X = 1 << 3;
constexpr uint64_t PTE_U = 1 << 4;
constexpr uint64_t PTE_A = 1 << 6;
constexpr uint64_t PTE_D = 1 << 7;

} // namespace

Priv
Mmu::effectivePriv(Access acc) const
{
    const auto &csr = st_.csr;
    if (acc != Access::Fetch && (csr.mstatus & MSTATUS_MPRV))
        return static_cast<Priv>((csr.mstatus & MSTATUS_MPP) >> 11);
    return st_.priv;
}

bool
Mmu::translationOn(Access acc) const
{
    return (st_.csr.satp >> SATP_MODE_SHIFT) == SATP_MODE_SV39 &&
           effectivePriv(acc) != Priv::M;
}

Exc
Mmu::faultFor(Access acc) const
{
    switch (acc) {
      case Access::Fetch: return Exc::InstPageFault;
      case Access::Load: return Exc::LoadPageFault;
      default: return Exc::StorePageFault;
    }
}

Trap
Mmu::translate(Addr vaddr, Access acc, Addr &paddr)
{
    Priv eff = effectivePriv(acc);
    bool on = (st_.csr.satp >> SATP_MODE_SHIFT) == SATP_MODE_SV39 &&
              eff != Priv::M;
    if (!on) {
        paddr = vaddr;
        lastPaddr_ = paddr;
        return Trap::none();
    }

    // Sv39 requires bits 63..39 to equal bit 38.
    int64_t sva = static_cast<int64_t>(vaddr);
    if ((sva << 25) >> 25 != sva) {
        ++stats_.pageFaults;
        return Trap::make(faultFor(acc), vaddr);
    }

    // TLB lookup (accessed/dirty already guaranteed set on insert path).
    Addr vpn = vaddr >> 12;
    TlbEntry &e = tlb_[vpn % TLB_SIZE];
    if (e.valid && e.vpn == vpn) {
        uint64_t p = e.perms;
        bool ok;
        const auto &csr = st_.csr;
        switch (acc) {
          case Access::Fetch:
            ok = (p & PTE_X) &&
                 ((eff == Priv::U) == static_cast<bool>(p & PTE_U));
            break;
          case Access::Load:
            ok = ((p & PTE_R) ||
                  ((csr.mstatus & MSTATUS_MXR) && (p & PTE_X)));
            if (eff == Priv::U)
                ok = ok && (p & PTE_U);
            else if (p & PTE_U)
                ok = ok && (csr.mstatus & MSTATUS_SUM);
            break;
          default:
            ok = (p & PTE_W) && (p & PTE_D);
            if (eff == Priv::U)
                ok = ok && (p & PTE_U);
            else if (p & PTE_U)
                ok = ok && (csr.mstatus & MSTATUS_SUM);
            break;
        }
        if (ok) {
            ++stats_.tlbHits;
            paddr = (e.ppn << 12) | (vaddr & 0xfff);
            lastPaddr_ = paddr;
            return Trap::none();
        }
    }
    ++stats_.tlbMisses;
    return walk(vaddr, acc, eff, paddr);
}

Trap
Mmu::walk(Addr vaddr, Access acc, Priv eff, Addr &paddr)
{
    ++stats_.pageWalks;
    const auto &csr = st_.csr;
    Addr root = (csr.satp & SATP_PPN_MASK) << 12;
    Addr a = root;
    int level = 2;
    uint64_t pte = 0;
    Addr pteAddr = 0;

    for (;;) {
        unsigned idx = static_cast<unsigned>(
            (vaddr >> (12 + 9 * level)) & 0x1ff);
        pteAddr = a + idx * 8;
        if (!readPhys(pteAddr, 8, pte)) {
            ++stats_.pageFaults;
            return Trap::make(acc == Access::Fetch
                                  ? Exc::InstAccessFault
                                  : (acc == Access::Load
                                         ? Exc::LoadAccessFault
                                         : Exc::StoreAccessFault),
                              vaddr);
        }
        if (!(pte & PTE_V) || (!(pte & PTE_R) && (pte & PTE_W))) {
            ++stats_.pageFaults;
            return Trap::make(faultFor(acc), vaddr);
        }
        if (pte & (PTE_R | PTE_X))
            break; // leaf
        if (--level < 0) {
            ++stats_.pageFaults;
            return Trap::make(faultFor(acc), vaddr);
        }
        a = ((pte >> 10) & ((1ULL << 44) - 1)) << 12;
    }

    // Permission checks.
    bool ok = true;
    switch (acc) {
      case Access::Fetch:
        ok = (pte & PTE_X);
        if (eff == Priv::U)
            ok = ok && (pte & PTE_U);
        else
            ok = ok && !(pte & PTE_U);
        break;
      case Access::Load:
        ok = (pte & PTE_R) ||
             ((csr.mstatus & MSTATUS_MXR) && (pte & PTE_X));
        if (eff == Priv::U)
            ok = ok && (pte & PTE_U);
        else if (pte & PTE_U)
            ok = ok && (csr.mstatus & MSTATUS_SUM);
        break;
      default:
        ok = (pte & PTE_W);
        if (eff == Priv::U)
            ok = ok && (pte & PTE_U);
        else if (pte & PTE_U)
            ok = ok && (csr.mstatus & MSTATUS_SUM);
        break;
    }
    if (!ok) {
        ++stats_.pageFaults;
        return Trap::make(faultFor(acc), vaddr);
    }

    // Misaligned superpage?
    uint64_t ppn = (pte >> 10) & ((1ULL << 44) - 1);
    if (level > 0 && (ppn & ((1ULL << (9 * level)) - 1))) {
        ++stats_.pageFaults;
        return Trap::make(faultFor(acc), vaddr);
    }

    // Hardware A/D update (Svadu-style, matching the DUT configuration).
    uint64_t newPte = pte | PTE_A | (acc == Access::Store ? PTE_D : 0);
    if (newPte != pte)
        writePhys(pteAddr, 8, newPte);

    // Compose the physical address; superpages take low PPN bits from va.
    Addr vpn = vaddr >> 12;
    Addr leafPpn = ppn;
    if (level > 0) {
        Addr mask = (1ULL << (9 * level)) - 1;
        leafPpn = (ppn & ~mask) | (vpn & mask);
    }
    paddr = (leafPpn << 12) | (vaddr & 0xfff);
    lastPaddr_ = paddr;

    // Insert a 4K-granule entry into the TLB. Stores require the D bit
    // which we just set; record the updated permissions.
    TlbEntry &e = tlb_[vpn % TLB_SIZE];
    e.vpn = vpn;
    e.ppn = leafPpn;
    e.perms = static_cast<uint8_t>(newPte & 0xff);
    e.valid = true;
    return Trap::none();
}

Trap
Mmu::load(Addr vaddr, unsigned size, uint64_t &data)
{
    if ((vaddr & (size - 1)) &&
        ((vaddr & 0xfff) + size > 0x1000)) {
        // Misaligned access crossing a page: split bytewise.
        data = 0;
        for (unsigned i = 0; i < size; ++i) {
            uint64_t byte;
            Trap t = load(vaddr + i, 1, byte);
            if (t.pending())
                return Trap::make(t.cause, vaddr);
            data |= byte << (8 * i);
        }
        return Trap::none();
    }
    Addr paddr;
    Trap t = translate(vaddr, Access::Load, paddr);
    if (t.pending())
        return t;
    if (!readPhys(paddr, size, data))
        return Trap::make(Exc::LoadAccessFault, vaddr);
    return Trap::none();
}

Trap
Mmu::store(Addr vaddr, unsigned size, uint64_t data)
{
    if ((vaddr & (size - 1)) &&
        ((vaddr & 0xfff) + size > 0x1000)) {
        for (unsigned i = 0; i < size; ++i) {
            Trap t = store(vaddr + i, 1, (data >> (8 * i)) & 0xff);
            if (t.pending())
                return Trap::make(t.cause, vaddr);
        }
        return Trap::none();
    }
    Addr paddr;
    Trap t = translate(vaddr, Access::Store, paddr);
    if (t.pending())
        return t;
    if (!writePhys(paddr, size, data))
        return Trap::make(Exc::StoreAccessFault, vaddr);
    return Trap::none();
}

Trap
Mmu::fetch(Addr vaddr, uint32_t &raw)
{
    if (vaddr & 1)
        return Trap::make(Exc::InstAddrMisaligned, vaddr);
    Addr paddr;
    Trap t = translate(vaddr, Access::Fetch, paddr);
    if (t.pending())
        return t;

    // Fast path: when all 4 bytes sit in one page, grab them with a
    // single bus read. A compressed instruction just ignores the high
    // half, so the result is identical to the two-halfword path; if
    // the wide read fails (e.g. the last 2 bytes of the DRAM window or
    // an MMIO fetch), fall through to the exact bytewise sequence.
    uint64_t wide;
    if ((vaddr & 0xfff) <= 0xffc && readPhys(paddr, 4, wide)) {
        raw = static_cast<uint32_t>(wide);
        if ((raw & 0x3) != 0x3)
            raw &= 0xffff; // compressed: match the halfword read
        return Trap::none();
    }

    uint64_t lo;
    if (!readPhys(paddr, 2, lo))
        return Trap::make(Exc::InstAccessFault, vaddr);
    raw = static_cast<uint32_t>(lo);
    if ((raw & 0x3) != 0x3)
        return Trap::none(); // compressed

    Addr vhi = vaddr + 2;
    Addr phi = paddr + 2;
    if ((vhi & 0xfff) == 0) { // crosses a page
        Trap t2 = translate(vhi, Access::Fetch, phi);
        if (t2.pending())
            return t2;
    }
    uint64_t hi;
    if (!readPhys(phi, 2, hi))
        return Trap::make(Exc::InstAccessFault, vhi);
    raw |= static_cast<uint32_t>(hi) << 16;
    return Trap::none();
}

void
Mmu::flushTlb()
{
    for (auto &e : tlb_)
        e.valid = false;
    if (flushHook_)
        flushHook_();
}

} // namespace minjie::iss
