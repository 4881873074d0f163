#include "workload/programs.h"

#include "workload/shrinkable.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/bitutil.h"
#include "isa/csr.h"

namespace minjie::workload {

using isa::Op;

namespace {

/** Store @p x at @p p, least significant byte first: one 8-byte move
 *  (a byte loop costs 4x on the 8 MiB int arrays). */
void
putLe64(uint8_t *p, uint64_t x)
{
    if constexpr (std::endian::native != std::endian::little)
        x = __builtin_bswap64(x);
    std::memcpy(p, &x, 8);
}

/** @p n little-endian 64-bit words, written once into the segment's
 *  buffer (SegmentBytes::written): words [0, @p period) are @p word(i),
 *  and every later one repeats the word one period back, copied forward
 *  a period at a time. */
template <typename F>
SegmentBytes
words64(size_t n, F &&word, size_t period = SIZE_MAX)
{
    return SegmentBytes::written(n * 8, [&](uint8_t *p) {
        const size_t head = std::min(n, period);
        for (size_t i = 0; i < head; ++i)
            putLe64(p + 8 * i, word(i));
        for (size_t i = head; i < n; i += head)
            std::memcpy(p + 8 * i, p, 8 * std::min(head, n - i));
    });
}

/** A single-cycle pointer ring of @p n nodes at @p base with @p spacing
 *  bytes between nodes, stored as absolute 64-bit next pointers (the
 *  padding between them stays zero). The visiting order is a list of
 *  the nodes shuffled by Sattolo's algorithm, node order[i] pointing at
 *  order[i + 1]. It is built in the nodes' own words in the segment's
 *  buffer, no scratch: the low half of node i's word holds order[i],
 *  the high half its successor, until a last pass turns the successor
 *  into a pointer. */
SegmentBytes
buildRing(Addr base, size_t n, Rng &rng, size_t spacing = 8)
{
    return SegmentBytes::written(n * spacing, [&](uint8_t *p) {
        auto get = [&](size_t i) {
            uint64_t w;
            std::memcpy(&w, p + i * spacing, 8);
            return w;
        };
        auto set = [&](size_t i, uint64_t w) {
            std::memcpy(p + i * spacing, &w, 8);
        };
        for (size_t i = 0; i < n; ++i)
            set(i, i);
        for (size_t i = n - 1; i > 0; --i) {
            size_t j = rng.below(i);
            uint64_t wi = get(i);
            set(i, get(j));
            set(j, wi);
        }
        for (size_t i = 0; i < n; ++i) {
            const size_t node = get(i) & 0xffffffff;
            const uint64_t succ = get(i + 1 < n ? i + 1 : 0) & 0xffffffff;
            set(node, get(node) | succ << 32);
        }
        for (size_t i = 0; i < n; ++i)
            putLe64(p + i * spacing, base + (get(i) >> 32) * spacing);
    });
}

/** Emit one xorshift64 step on s4 using t0 as scratch. */
void
prngStep(Asm &a)
{
    a.itype(Op::Slli, t0, s4, 13);
    a.rtype(Op::Xor, s4, s4, t0);
    a.itype(Op::Srli, t0, s4, 7);
    a.rtype(Op::Xor, s4, s4, t0);
    a.itype(Op::Slli, t0, s4, 17);
    a.rtype(Op::Xor, s4, s4, t0);
}

} // namespace

const std::vector<ProxySpec> &
specIntSuite()
{
    // name, fp, wsKB, chase, branch, entropy, fp, store, call, indirect
    static const std::vector<ProxySpec> suite = {
        {"401.bzip2", false, 256, 5, 25, 30, 0, 20, 5, 0},
        {"403.gcc", false, 1024, 10, 25, 20, 0, 15, 15, 8},
        {"429.mcf", false, 8192, 12, 12, 25, 0, 10, 5, 0},
        {"445.gobmk", false, 512, 8, 30, 28, 0, 15, 18, 5},
        {"456.hmmer", false, 128, 0, 8, 5, 0, 25, 5, 0},
        {"458.sjeng", false, 512, 8, 30, 38, 0, 10, 18, 10},
        {"462.libquantum", false, 4096, 5, 8, 3, 0, 30, 0, 0},
        {"464.h264ref", false, 256, 5, 15, 12, 0, 25, 10, 5},
        {"471.omnetpp", false, 4096, 10, 18, 22, 0, 15, 15, 10},
        {"473.astar", false, 4096, 8, 22, 30, 0, 10, 10, 0},
        {"483.xalancbmk", false, 2048, 20, 20, 22, 0, 10, 18, 12},
    };
    return suite;
}

const std::vector<ProxySpec> &
specFpSuite()
{
    static const std::vector<ProxySpec> suite = {
        {"410.bwaves", true, 4096, 0, 4, 2, 55, 15, 0, 0},
        {"433.milc", true, 4096, 5, 4, 5, 45, 20, 5, 0},
        {"434.zeusmp", true, 2048, 0, 4, 2, 50, 20, 0, 0},
        {"436.cactusADM", true, 1024, 0, 4, 2, 60, 15, 0, 0},
        {"437.leslie3d", true, 2048, 0, 4, 2, 55, 15, 0, 0},
        {"444.namd", true, 256, 5, 8, 8, 50, 10, 10, 0},
        {"447.dealII", true, 1024, 12, 12, 12, 35, 10, 15, 5},
        {"450.soplex", true, 2048, 10, 12, 15, 30, 10, 10, 0},
        {"453.povray", true, 128, 8, 16, 15, 35, 10, 15, 5},
        {"454.calculix", true, 512, 5, 8, 8, 45, 15, 5, 0},
        {"459.GemsFDTD", true, 4096, 5, 4, 2, 50, 20, 0, 0},
        {"465.tonto", true, 512, 5, 8, 8, 45, 15, 10, 0},
        {"470.lbm", true, 8192, 0, 4, 2, 45, 30, 0, 0},
        {"481.wrf", true, 2048, 5, 8, 5, 45, 15, 5, 0},
        {"482.sphinx3", true, 512, 5, 12, 12, 40, 15, 5, 0},
    };
    return suite;
}

Program
buildProxy(const ProxySpec &spec, uint64_t iterations, uint64_t seed,
           const Layout &layout)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + std::hash<std::string>{}(spec.name));
    Program prog;
    prog.name = spec.name;
    prog.entry = layout.codeBase;

    // ---- data segments ----
    // The pointer-chase ring spreads one node per cache line across the
    // whole working set; re-traversal after a full cycle gives the
    // LLC-level reuse real pointer codes exhibit.
    const size_t wsBytes = static_cast<size_t>(spec.wsKB) * 1024;
    // Chase-ring sizing. Cache-resident benchmarks use a small ring
    // that is re-traversed constantly (L2-resident latency behaviour).
    // The memory-bound class (>=4MB working sets) uses a 4MB ring with
    // a periodic chase-pointer reset emitted in the loop body: the
    // visited prefix (~2.6MB) is re-walked on every reset, so it
    // thrashes a 2MB LLC, fits a 4-6MB one, and reaches DRAM on a
    // 1MB-L2-only machine — the paper's Figure 12 capacity axis.
    const bool memBound = spec.wsKB >= 4096;
    const size_t ringBytes = memBound
        ? 4 * 1024 * 1024
        : std::max<size_t>(4096, std::min<size_t>(wsBytes / 2,
                                                  256 * 1024));
    const Addr ringBase = layout.dataBase;
    const Addr intsBase = ringBase + wsBytes;
    const Addr dblsBase = intsBase + wsBytes;
    // Memory-bound fp benchmarks stream a multi-MB grid of doubles
    // (bwaves/lbm/GemsFDTD class); others work a hot 32KB table.
    const size_t dblsBytes = (spec.fp && memBound)
        ? 4 * 1024 * 1024
        : 32 * 1024;
    // Hot subset of the int array (L1-resident on both generations,
    // as the bulk of real benchmarks' accesses are) and a cold region
    // whose random revisits produce gradual LLC-capacity sensitivity.
    const size_t hotBytes = std::min<size_t>(wsBytes, 32 * 1024);
    const size_t coldBytes = std::min<size_t>(wsBytes,
                                              4 * 1024 * 1024);

    prog.segments.push_back(
        {ringBase, buildRing(ringBase, ringBytes / 64, rng, 64)});

    prog.segments.push_back(
        {intsBase, words64(wsBytes / 8, [&](size_t) { return rng.next(); })});
    // The double grid repeats one 997-word period.
    auto grid = [](size_t i) {
        return std::bit_cast<uint64_t>(1.0 + static_cast<double>(i) * 0.001);
    };
    prog.segments.push_back({dblsBase, words64(dblsBytes / 8, grid, 997)});

    // ---- indirect-jump case blocks (fixed-address aux segment) ----
    {
        Asm cases(layout.auxCode);
        for (unsigned c = 0; c < 16; ++c) {
            // Each case is exactly 8 instructions = 32 bytes.
            cases.itype(Op::Addi, s6, s6, static_cast<int64_t>(c));
            cases.itype(Op::Xori, s4, s4, static_cast<int64_t>(c * 3 + 1));
            cases.rtype(Op::Add, s6, s6, s4);
            cases.nop();
            cases.nop();
            cases.nop();
            cases.nop();
            cases.ret();
        }
        prog.segments.push_back(cases.finish());
    }

    // ---- main code ----
    Asm a(layout.codeBase);
    a.li(sp, layout.stackTop);
    a.li(s0, intsBase);
    a.li(s1, ringBase);
    a.li(s2, iterations);
    a.li(s3, 0);
    a.li(s4, rng.next() | 1);
    a.li(s5, coldBytes - 8);     // cold-region index mask
    a.li(s6, 0);
    a.li(s7, hotBytes - 8);      // hot-region mask
    a.li(s8, dblsBase);
    a.li(s10, dblsBytes - 8);    // doubles mask
    a.li(s11, layout.auxCode);
    if (spec.fpPct) {
        a.load(Op::Fld, 8 /*fs0*/, 0, s8);
        a.li(t0, std::bit_cast<uint64_t>(0.5));
        a.fp3(Op::FmvDX, 9 /*fs1*/, t0, 0);
    }

    // Rotate accumulators so independent dependence chains exist (real
    // code has several live chains; a single accumulator would serialize
    // every load through one register and cap ILP at 1).
    const uint8_t accs[] = {s6, a4, a5, a6, a7};
    auto pickAcc = [&]() { return accs[rng.below(std::size(accs))]; };
    const uint8_t faccs[] = {8 /*fs0*/, 18 /*fs2*/, 19 /*fs3*/,
                             20 /*fs4*/};
    auto pickFacc = [&]() { return faccs[rng.below(std::size(faccs))]; };
    if (spec.fpPct) {
        for (uint8_t f : faccs)
            a.load(Op::Fld, f, 8 * (f % 8), s8);
    }

    // Deterministic cold-site rotation: with only ~10 memory sites per
    // body a per-site probability would frequently generate zero cold
    // sites; every 7th site (~14%) touching the cold region guarantees
    // each benchmark exercises its full working set.
    unsigned memSite = 0;
    const unsigned coldEvery = memBound ? 2 : 7;
    auto coldSite = [&]() { return (memSite++ % coldEvery) ==
                                   coldEvery - 1; };

    Label leaves[4];
    Label loop = a.newLabel();
    Label done = a.newLabel();
    for (auto &l : leaves)
        l = a.newLabel();

    a.bind(loop);
    a.branch(Op::Beq, s2, zero, done);

    if (memBound) {
        // Reset the chase pointer every 1024 iterations so the chase
        // footprint stays bounded and re-walked (the random cold walk,
        // not the chase, carries the DRAM/LLC-capacity behaviour).
        Label noReset = a.newLabel();
        a.itype(Op::Andi, t0, s2, 1023);
        a.branch(Op::Bne, t0, zero, noReset);
        a.li(s1, ringBase);
        a.bind(noReset);
    }

    // Emit 24 body groups drawn from the characteristic mixture.
    for (unsigned g = 0; g < 24; ++g) {
        unsigned roll = static_cast<unsigned>(rng.below(100));
        unsigned acc = spec.chasePct;
        if (roll < acc) {
            // pointer chase: one dependent hop
            a.load(Op::Ld, s1, 0, s1);
            continue;
        }
        acc += spec.branchPct;
        if (roll < acc) {
            prngStep(a);
            Label skip = a.newLabel();
            bool random = rng.below(100) < spec.entropyPct;
            if (random) {
                a.itype(Op::Andi, t0, s4, 1);
                a.branch(Op::Beq, t0, zero, skip);
            } else {
                a.itype(Op::Andi, t0, s3, 63);
                a.branch(Op::Bne, t0, zero, skip);
            }
            uint8_t A = pickAcc();
            a.itype(Op::Addi, A, A, 1);
            a.rtype(Op::Xor, A, A, s4);
            a.bind(skip);
            continue;
        }
        acc += spec.fpPct;
        if (roll < acc) {
            uint8_t F = pickFacc();
            // Hot fp sites reuse a 32KB table; cold sites walk the
            // full doubles region (capacity behaviour for fp codes).
            bool cold = dblsBytes > 32 * 1024 && coldSite();
            a.rtype(Op::And, t0, s3, cold ? s10 : s7);
            a.rtype(Op::Add, t0, t0, s8);
            a.load(Op::Fld, 10 /*fa0*/, 0, t0);
            // Real fp kernels are dense: several MACs per load, spread
            // over independent accumulator chains.
            a.fp3(Op::FmaddD, F, F, 9, 10); // F = F*fs1 + fa0
            uint8_t F2 = pickFacc();
            a.fp3(Op::FmaddD, F2, F2, 9, 10);
            uint8_t F3 = pickFacc();
            a.fp3(Op::FnmsubD, F3, F3, 9, 10);
            a.itype(Op::Addi, s3, s3, 40);
            if (rng.chance(10))
                a.fp3(Op::FdivD, 11, 10, F); // fa1 = fa0/F
            continue;
        }
        acc += spec.storePct;
        if (roll < acc) {
            if (!coldSite()) {
                a.rtype(Op::And, t0, s3, s7);
            } else {
                // Cold store: pseudo-random line within the cold region.
                a.itype(Op::Slli, t0, s3, 7);
                a.rtype(Op::Xor, t0, t0, s3);
                a.rtype(Op::And, t0, t0, s5);
                a.itype(Op::Andi, t0, t0, -8);
            }
            a.rtype(Op::Add, t0, t0, s0);
            a.store(Op::Sd, pickAcc(), 0, t0);
            a.itype(Op::Addi, s3, s3, 72);
            continue;
        }
        acc += spec.callPct;
        if (roll < acc) {
            a.call(leaves[rng.below(4)]);
            continue;
        }
        acc += spec.indirectPct;
        if (roll < acc) {
            if (rng.chance(80)) {
                // Monomorphic call site (the common case in real code:
                // a virtual call that always dispatches one target).
                a.itype(Op::Addi, t0, s11,
                        static_cast<int64_t>(rng.below(16) * 32));
            } else {
                // Polymorphic site: data-dependent target.
                prngStep(a);
                a.itype(Op::Andi, t0, s4, 15);
                a.itype(Op::Slli, t0, t0, 5);
                a.rtype(Op::Add, t0, t0, s11);
            }
            a.itype(Op::Jalr, ra, t0, 0);
            continue;
        }
        // default: load + ALU mix; 85%% of sites touch the hot region,
        // the rest revisit pseudo-random lines of the cold region.
        uint8_t A = pickAcc();
        if (!coldSite()) {
            a.rtype(Op::And, t0, s3, s7);
        } else {
            a.itype(Op::Slli, t0, s3, 7);
            a.rtype(Op::Xor, t0, t0, s3);
            a.rtype(Op::And, t0, t0, s5);
            a.itype(Op::Andi, t0, t0, -8);
        }
        a.rtype(Op::Add, t0, t0, s0);
        a.load(Op::Ld, t1, 0, t0);
        a.rtype(Op::Add, A, A, t1);
        a.itype(Op::Addi, s3, s3, 64);
        if (rng.chance(30))
            a.rtype(Op::Mul, t1, t1, s4);
        a.rtype(Op::Xor, A, A, t1);
    }

    a.itype(Op::Addi, s2, s2, -1);
    a.j(loop);

    // Leaf functions.
    for (unsigned i = 0; i < 4; ++i) {
        a.bind(leaves[i]);
        a.itype(Op::Addi, s6, s6, static_cast<int64_t>(i + 1));
        a.itype(Op::Xori, s4, s4, static_cast<int64_t>(i * 5 + 3));
        a.ret();
    }

    a.bind(done);
    a.exit(0);
    prog.segments.push_back(a.finish());
    return prog;
}

Program
sumProgram(uint64_t n, const Layout &layout)
{
    Program prog;
    prog.name = "sum";
    prog.entry = layout.codeBase;

    Asm a(layout.codeBase);
    a.li(a0, 0);
    a.li(a1, n);
    Label loop = a.boundLabel();
    a.rtype(Op::Add, a0, a0, a1);
    a.itype(Op::Addi, a1, a1, -1);
    a.branch(Op::Bne, a1, zero, loop);
    a.li(a2, n * (n + 1) / 2);
    Label fail = a.newLabel();
    a.branch(Op::Bne, a0, a2, fail);
    a.exit(0);
    a.bind(fail);
    a.exit(1);
    prog.segments.push_back(a.finish());
    return prog;
}

Program
coremarkProxy(uint64_t iterations, const Layout &layout)
{
    Rng rng(0xc04e);
    Program prog;
    prog.name = "coremark-proxy";
    prog.entry = layout.codeBase;

    // List region: a 4K-node pointer ring; matrix region: 32x32 i64.
    const Addr listBase = layout.dataBase;
    prog.segments.push_back({listBase, buildRing(listBase, 4096, rng)});
    const Addr matBase = listBase + 4096 * 8;
    prog.segments.push_back({matBase, words64(32 * 32, [](size_t i) {
        return static_cast<uint64_t>(
            (static_cast<unsigned>(i) * 2654435761u) & 0xffff);
    })});

    Asm a(layout.codeBase);
    a.li(sp, layout.stackTop);
    a.li(s0, listBase);
    a.li(s1, listBase);
    a.li(s2, iterations);
    a.li(s3, matBase);
    a.li(s4, 0x12345678);
    a.li(s6, 0);

    Label outer = a.newLabel();
    Label done = a.newLabel();
    a.bind(outer);
    a.branch(Op::Beq, s2, zero, done);

    // Phase 1: list walk (64 hops).
    a.li(t2, 64);
    Label walk = a.boundLabel();
    a.load(Op::Ld, s1, 0, s1);
    a.itype(Op::Addi, t2, t2, -1);
    a.branch(Op::Bne, t2, zero, walk);

    // Phase 2: row x column dot product (32 MACs).
    a.li(t2, 32);
    a.li(t3, 0);
    a.rtype(Op::Add, t4, s3, zero);
    Label dot = a.boundLabel();
    a.load(Op::Ld, t0, 0, t4);
    a.load(Op::Ld, t1, 256, t4);
    a.rtype(Op::Mul, t0, t0, t1);
    a.rtype(Op::Add, t3, t3, t0);
    a.itype(Op::Addi, t4, t4, 8);
    a.itype(Op::Addi, t2, t2, -1);
    a.branch(Op::Bne, t2, zero, dot);
    a.rtype(Op::Add, s6, s6, t3);

    // Phase 3: CRC-ish bit loop over the accumulator (16 rounds).
    a.li(t2, 16);
    Label crc = a.boundLabel();
    a.itype(Op::Andi, t0, s4, 1);
    a.itype(Op::Srli, s4, s4, 1);
    Label noxor = a.newLabel();
    a.branch(Op::Beq, t0, zero, noxor);
    a.li(t1, 0xedb88320);
    a.rtype(Op::Xor, s4, s4, t1);
    a.bind(noxor);
    a.itype(Op::Addi, t2, t2, -1);
    a.branch(Op::Bne, t2, zero, crc);
    a.rtype(Op::Add, s6, s6, s4);

    a.itype(Op::Addi, s2, s2, -1);
    a.j(outer);

    a.bind(done);
    a.exit(0);
    prog.segments.push_back(a.finish());
    return prog;
}

Program
memStressProgram(uint64_t iterations, unsigned footprintMB,
                 const Layout &layout)
{
    Program prog;
    prog.name = "memstress";
    prog.entry = layout.codeBase;

    Asm a(layout.codeBase);
    const uint64_t mask = static_cast<uint64_t>(footprintMB) * 1024 * 1024 - 1;
    a.li(s0, layout.dataBase);
    a.li(s2, iterations);
    a.li(s4, 0x2545F4914F6CDD1DULL);
    a.li(s5, mask & ~0xfffULL); // page-aligned offsets
    a.li(s6, 0);

    Label loop = a.newLabel();
    Label done = a.newLabel();
    a.bind(loop);
    a.branch(Op::Beq, s2, zero, done);
    prngStep(a);
    a.rtype(Op::And, t0, s4, s5);
    a.rtype(Op::Add, t0, t0, s0);
    a.store(Op::Sd, s4, 0, t0);     // dirty a page
    a.load(Op::Ld, t1, 8, t0);
    a.rtype(Op::Add, s6, s6, t1);
    a.itype(Op::Addi, s2, s2, -1);
    a.j(loop);
    a.bind(done);
    a.exit(0);
    prog.segments.push_back(a.finish());
    return prog;
}


Program
sv39Program(const Layout &layout)
{
    Asm a(layout.codeBase);
    const Addr root = 0x80200000; // L2 table (1GB entries)

    constexpr uint64_t V = 1, R = 2, W = 4, X = 8, A = 1 << 6,
                       D = 1 << 7;

    // Gigapage identity map: VA 0x80000000 -> PA 0x80000000 (DRAM) and
    // VA 0x40000000 -> PA 0x40000000 (SimCtrl device window).
    a.li(t0, root);
    a.li(t1, ((0x80000000ULL >> 12) << 10) | V | R | W | X | A | D);
    a.store(Op::Sd, t1, 16, t0);
    a.li(t1, ((0x40000000ULL >> 12) << 10) | V | R | W | A | D);
    a.store(Op::Sd, t1, 8, t0);

    // satp = Sv39 | root ppn, then sfence.vma.
    a.li(t1, (8ULL << 60) | (root >> 12));
    a.csr(Op::Csrrw, zero, isa::CSR_SATP, t1);
    a.itype(Op::SfenceVma, 0, 0, 0);

    // Drop to S-mode (mret with MPP=S): translation then covers code
    // fetches as well.
    a.li(t1, 1ULL << 11); // MPP = S
    a.csr(Op::Csrrw, zero, isa::CSR_MSTATUS, t1);
    a.li(t1, 0x80000100);
    a.csr(Op::Csrrw, zero, isa::CSR_MEPC, t1);
    a.itype(Op::Mret, 0, 0, 0);

    while (a.here() < 0x80000100)
        a.nop();
    // S-mode, Sv39 active: virtually-addressed compute + memory.
    a.li(a0, 0);
    a.li(a1, 100);
    Label loop = a.boundLabel();
    a.rtype(Op::Add, a0, a0, a1);
    a.itype(Op::Addi, a1, a1, -1);
    a.branch(Op::Bne, a1, zero, loop);
    a.li(s0, 0x80100000);
    a.store(Op::Sd, a0, 0, s0);
    a.load(Op::Ld, a2, 0, s0);
    a.exit(0);

    Program prog;
    prog.name = "sv39";
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    return prog;
}

Program
smcProgram(const Layout &layout)
{
    Asm a(layout.codeBase);
    Label patchSite = a.newLabel();
    Label doPatch = a.newLabel();

    a.li(a0, 0);
    a.li(s2, 0); // pass counter
    a.bind(patchSite);
    a.itype(Op::Addi, a0, a0, 1); // will be patched to +7
    // After the patched instruction: first pass patches and loops.
    a.itype(Op::Addi, s2, s2, 1);
    a.li(t1, 1);
    a.branch(Op::Beq, s2, t1, doPatch);
    // Second pass: exit with a0 as the code.
    a.li(t6, 0x40000000);
    a.itype(Op::Slli, t5, a0, 1);
    a.itype(Op::Ori, t5, t5, 1);
    a.store(Op::Sd, t5, 0, t6);
    Label spin = a.boundLabel();
    a.j(spin);

    a.bind(doPatch);
    // Build the new encoding (addi a0, a0, 7) and store it over the
    // patch site, then fence.i and loop back.
    isa::DecodedInst di;
    di.op = Op::Addi;
    di.rd = a0;
    di.rs1 = a0;
    di.imm = 7;
    a.li(t0, isa::encode(di));
    a.li(t1, layout.codeBase + 8); // patchSite, after the two li's
    a.store(Op::Sw, t0, 0, t1);
    a.itype(Op::FenceI, 0, 0, 0);
    a.j(patchSite);

    Program prog;
    prog.name = "smc";
    prog.entry = layout.codeBase;
    prog.segments.push_back(a.finish());
    return prog;
}

Program
randomProgram(Rng &rng, unsigned nInsts, bool withFp, const Layout &layout)
{
    // Delegates to the shrinkable chunk-based generator (shrinkable.h)
    // so fuzz tests and campaign jobs share one instruction mix.
    RandomSpec spec;
    spec.nInsts = nInsts;
    spec.withFp = withFp;
    return randomShrinkable(rng, spec, layout).assemble();
}

std::optional<Program>
byName(const std::string &name, uint64_t iters)
{
    if (name == "coremark")
        return coremarkProxy(iters);
    if (name == "memstress")
        return memStressProgram(iters, 16);
    if (name == "sum")
        return sumProgram(iters);
    if (name == "sv39")
        return sv39Program();
    for (const auto *suite : {&specIntSuite(), &specFpSuite()})
        for (const auto &s : *suite)
            if (name == s.name)
                return buildProxy(s, iters);
    return std::nullopt;
}

std::vector<std::string>
names()
{
    std::vector<std::string> out = {"coremark", "memstress", "sum", "sv39"};
    for (const auto *suite : {&specIntSuite(), &specFpSuite()})
        for (const auto &s : *suite)
            out.push_back(s.name);
    return out;
}

} // namespace minjie::workload
