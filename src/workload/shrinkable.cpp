#include "workload/shrinkable.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/log.h"
#include "isa/decode.h"

namespace minjie::workload {

using isa::Op;

namespace {

// ---------------------------------------------------------------- RVC
// Compressed-instruction encoders. Field layouts follow the RVC spec;
// every produced encoding is checked against the repo decoder at
// generation time so a generator bug cannot silently emit garbage.

/** CI format (c.addi/c.addiw/c.li/c.slli). */
uint16_t
ci(unsigned f3, unsigned quad, uint8_t rd, int imm6)
{
    uint16_t u = static_cast<uint16_t>(imm6 & 0x3f);
    return static_cast<uint16_t>((f3 << 13) | (((u >> 5) & 1) << 12) |
                                 (rd << 7) | ((u & 0x1f) << 2) | quad);
}

uint16_t cAddi(uint8_t rd, int imm6) { return ci(0b000, 0b01, rd, imm6); }
uint16_t cAddiw(uint8_t rd, int imm6) { return ci(0b001, 0b01, rd, imm6); }
uint16_t cLi(uint8_t rd, int imm6) { return ci(0b010, 0b01, rd, imm6); }
uint16_t cSlli(uint8_t rd, unsigned sh)
{
    return ci(0b000, 0b10, rd, static_cast<int>(sh));
}

/** CB-format shifts/andi on x8..x15 (@p rdp is reg-8). */
uint16_t
cbAlu(unsigned funct2, uint8_t rdp, int imm6)
{
    uint16_t u = static_cast<uint16_t>(imm6 & 0x3f);
    return static_cast<uint16_t>((0b100 << 13) | (((u >> 5) & 1) << 12) |
                                 (funct2 << 10) | ((rdp & 7) << 7) |
                                 ((u & 0x1f) << 2) | 0b01);
}

uint16_t cSrli(uint8_t rdp, unsigned sh) { return cbAlu(0b00, rdp, sh); }
uint16_t cSrai(uint8_t rdp, unsigned sh) { return cbAlu(0b01, rdp, sh); }
uint16_t cAndi(uint8_t rdp, int imm6) { return cbAlu(0b10, rdp, imm6); }

/** CA format: c.sub/c.xor/c.or/c.and (w=0) and c.subw/c.addw (w=1). */
uint16_t
caAlu(unsigned funct2, bool w, uint8_t rdp, uint8_t rs2p)
{
    return static_cast<uint16_t>((0b100 << 13) | ((w ? 1 : 0) << 12) |
                                 (0b11 << 10) | ((rdp & 7) << 7) |
                                 (funct2 << 5) | ((rs2p & 7) << 2) | 0b01);
}

/** CR format: c.mv (add12=0) / c.add (add12=1), full register fields. */
uint16_t
crMove(bool add, uint8_t rd, uint8_t rs2)
{
    return static_cast<uint16_t>((0b100 << 13) | ((add ? 1 : 0) << 12) |
                                 (rd << 7) | (rs2 << 2) | 0b10);
}

/** CL/CS word access: c.lw/c.sw, offset multiple of 4 below 128. */
uint16_t
clsWord(bool store, uint8_t rdp, uint8_t rs1p, unsigned off)
{
    return static_cast<uint16_t>(((store ? 0b110 : 0b010) << 13) |
                                 (((off >> 3) & 7) << 10) |
                                 ((rs1p & 7) << 7) |
                                 (((off >> 2) & 1) << 6) |
                                 (((off >> 6) & 1) << 5) |
                                 ((rdp & 7) << 2) | 0b00);
}

/** CL/CS doubleword access: c.ld/c.sd, offset multiple of 8 below 256. */
uint16_t
clsDouble(bool store, uint8_t rdp, uint8_t rs1p, unsigned off)
{
    return static_cast<uint16_t>(((store ? 0b111 : 0b011) << 13) |
                                 (((off >> 3) & 7) << 10) |
                                 ((rs1p & 7) << 7) |
                                 (((off >> 6) & 3) << 5) |
                                 ((rdp & 7) << 2) | 0b00);
}

/** Emit one compressed encoding, validating it against the decoder. */
void
emitRvc(Asm &a, uint16_t enc)
{
    isa::DecodedInst di = isa::decode16(enc);
    if (di.op == Op::Illegal)
        panic("rvc generator produced illegal encoding 0x%04x", enc);
    a.raw16(enc);
}

// ------------------------------------------------------- op tables
const Op ALU_R[] = {
    Op::Add, Op::Sub, Op::Sll, Op::Slt, Op::Sltu, Op::Xor, Op::Srl,
    Op::Sra, Op::Or, Op::And, Op::Addw, Op::Subw, Op::Sllw, Op::Srlw,
    Op::Sraw, Op::Mul, Op::Mulh, Op::Mulhsu, Op::Mulhu, Op::Div,
    Op::Divu, Op::Rem, Op::Remu, Op::Mulw, Op::Divw, Op::Divuw,
    Op::Remw, Op::Remuw, Op::Andn, Op::Orn, Op::Xnor, Op::Max,
    Op::Maxu, Op::Min, Op::Minu, Op::Rol, Op::Ror, Op::Sh1add,
    Op::Sh2add, Op::Sh3add, Op::AddUw, Op::Rolw, Op::Rorw,
};
const Op ALU_I[] = {
    Op::Addi, Op::Slti, Op::Sltiu, Op::Xori, Op::Ori, Op::Andi,
    Op::Addiw,
};
const Op SHIFT_I[] = {Op::Slli, Op::Srli, Op::Srai, Op::Rori};
const Op UNARY[] = {
    Op::Clz, Op::Ctz, Op::Cpop, Op::Clzw, Op::Ctzw, Op::Cpopw,
    Op::SextB, Op::SextH, Op::ZextH, Op::OrcB, Op::Rev8,
};
const Op LOADS[] = {Op::Lb, Op::Lh, Op::Lw, Op::Ld, Op::Lbu, Op::Lhu,
                    Op::Lwu};
const Op STORES[] = {Op::Sb, Op::Sh, Op::Sw, Op::Sd};
const Op BRANCHES[] = {Op::Beq, Op::Bne, Op::Blt, Op::Bge, Op::Bltu,
                       Op::Bgeu};
const Op FP_ARITH[] = {
    Op::FaddD, Op::FsubD, Op::FmulD, Op::FdivD, Op::FsqrtD,
    Op::FaddS, Op::FsubS, Op::FmulS, Op::FdivS, Op::FsqrtS,
    Op::FsgnjD, Op::FsgnjnD, Op::FsgnjxD, Op::FminD, Op::FmaxD,
    Op::FsgnjS, Op::FminS, Op::FmaxS,
    Op::FmaddD, Op::FmsubD, Op::FnmsubD, Op::FnmaddD,
};
const Op AMOS[] = {
    Op::AmoSwapW, Op::AmoAddW, Op::AmoXorW, Op::AmoAndW, Op::AmoOrW,
    Op::AmoMinW, Op::AmoMaxW, Op::AmoMinuW, Op::AmoMaxuW,
    Op::AmoSwapD, Op::AmoAddD, Op::AmoXorD, Op::AmoAndD, Op::AmoOrD,
    Op::AmoMinD, Op::AmoMaxD, Op::AmoMinuD, Op::AmoMaxuD,
};

/** Any integer register except zero's sandbox anchor s0. */
uint8_t
pickRd(Rng &rng)
{
    uint8_t r;
    do {
        r = static_cast<uint8_t>(rng.below(32));
    } while (r == s0);
    return r;
}

uint8_t pickRs(Rng &rng) { return static_cast<uint8_t>(rng.below(32)); }

/** Compressed rd' field: x9..x15 (never the s0/x8 anchor). */
uint8_t pickRdc(Rng &rng) { return static_cast<uint8_t>(9 + rng.below(7)); }

/**
 * Emit t0 = s0 + aligned offset within the low 2 KB of the sandbox.
 * Two andi steps: clamp positive (0x7ff), then align (-size has all
 * high bits set, so it only clears the low alignment bits).
 */
void
sandboxAddr(Asm &a, Rng &rng, unsigned size)
{
    a.itype(Op::Andi, t0, pickRs(rng), 0x7ff);
    a.itype(Op::Andi, t0, t0, -static_cast<int64_t>(size));
    a.rtype(Op::Add, t0, t0, s0);
}

/** Most instructions one chunk holds (the LR/SC sequence). */
constexpr unsigned MAX_CHUNK_INSTS = 8;

/**
 * Emit one random chunk according to @p spec at the end of @p a.
 * Its branches target its own labels, which @p a must resolve before
 * the next chunk. @return the chunk's instruction count.
 */
unsigned
randomChunk(Asm &a, Rng &rng, const RandomSpec &spec)
{
    unsigned n = 0;
    unsigned cat = static_cast<unsigned>(rng.below(100));

    auto aluRChunk = [&] {
        unsigned count = 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned k = 0; k < count; ++k)
            a.rtype(ALU_R[rng.below(std::size(ALU_R))], pickRd(rng),
                    pickRs(rng), pickRs(rng));
        n += count;
    };

    if (cat < 26) {
        aluRChunk();
    } else if (cat < 38) {
        a.itype(ALU_I[rng.below(std::size(ALU_I))], pickRd(rng),
                pickRs(rng), static_cast<int64_t>(rng.next() & 0xfff) - 2048);
        n += 1;
    } else if (cat < 45) {
        a.itype(SHIFT_I[rng.below(std::size(SHIFT_I))], pickRd(rng),
                pickRs(rng), static_cast<int64_t>(rng.below(64)));
        n += 1;
    } else if (cat < 51) {
        a.itype(UNARY[rng.below(std::size(UNARY))], pickRd(rng),
                pickRs(rng), 0);
        n += 1;
    } else if (cat < 61) {
        Op op = LOADS[rng.below(std::size(LOADS))];
        sandboxAddr(a, rng, isa::memSize(op));
        a.load(op, pickRd(rng), 0, t0);
        n += 4;
    } else if (cat < 69) {
        Op op = STORES[rng.below(std::size(STORES))];
        sandboxAddr(a, rng, isa::memSize(op));
        a.store(op, pickRs(rng), 0, t0);
        n += 4;
    } else if (cat < 77) {
        // Short forward branch over 1-3 filler instructions; the label
        // resolves within the chunk, keeping it position-independent.
        Label skip = a.newLabel();
        a.branch(BRANCHES[rng.below(std::size(BRANCHES))], pickRs(rng),
                 pickRs(rng), skip);
        unsigned fill = 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned k = 0; k < fill; ++k)
            a.rtype(ALU_R[rng.below(std::size(ALU_R))], pickRd(rng),
                    pickRs(rng), pickRs(rng));
        a.bind(skip);
        n += 1 + fill;
    } else if (cat < 84 && spec.withRvc) {
        // Compressed sequence: 2-5 RVC instructions. Loads/stores use
        // the s0 anchor (x8 encodes as compressed register 0).
        unsigned count = 2 + static_cast<unsigned>(rng.below(4));
        for (unsigned k = 0; k < count; ++k) {
            int imm6 = static_cast<int>(rng.below(63)) - 31;
            if (imm6 == 0)
                imm6 = 1;
            switch (rng.below(9)) {
              case 0:
                emitRvc(a, cLi(pickRd(rng), imm6));
                break;
              case 1:
                emitRvc(a, cAddi(pickRd(rng), imm6));
                break;
              case 2: {
                uint8_t rd = pickRd(rng);
                if (rd == 0)
                    rd = t1; // c.addiw with rd=x0 is reserved
                emitRvc(a, cAddiw(rd, imm6));
                break;
              }
              case 3:
                emitRvc(a, cSlli(pickRd(rng),
                                 1 + static_cast<unsigned>(rng.below(63))));
                break;
              case 4: {
                unsigned sh = 1 + static_cast<unsigned>(rng.below(63));
                uint8_t rdp = static_cast<uint8_t>(pickRdc(rng) - 8);
                emitRvc(a, rng.chance(50) ? cSrli(rdp, sh)
                                          : cSrai(rdp, sh));
                break;
              }
              case 5:
                emitRvc(a, cAndi(static_cast<uint8_t>(pickRdc(rng) - 8),
                                 imm6));
                break;
              case 6: {
                // c.sub/c.xor/c.or/c.and or the RV64 c.subw/c.addw.
                bool w = rng.chance(33);
                unsigned f2 = static_cast<unsigned>(rng.below(w ? 2 : 4));
                emitRvc(a, caAlu(f2, w,
                                 static_cast<uint8_t>(pickRdc(rng) - 8),
                                 static_cast<uint8_t>(pickRdc(rng) - 8)));
                break;
              }
              case 7: {
                uint8_t rs2 = pickRs(rng);
                if (rs2 == 0)
                    rs2 = t1;
                emitRvc(a, crMove(rng.chance(50), pickRd(rng), rs2));
                break;
              }
              default: {
                bool dbl = rng.chance(50);
                bool store = rng.chance(40);
                uint8_t rp = static_cast<uint8_t>(pickRdc(rng) - 8);
                unsigned off = dbl
                                   ? 8 * static_cast<unsigned>(rng.below(32))
                                   : 4 * static_cast<unsigned>(rng.below(32));
                emitRvc(a, dbl ? clsDouble(store, rp, 0, off)
                               : clsWord(store, rp, 0, off));
                break;
              }
            }
        }
        n += count;
    } else if (cat < 89 && spec.withFp) {
        Op op = FP_ARITH[rng.below(std::size(FP_ARITH))];
        a.fp3(op, static_cast<uint8_t>(rng.below(32)),
              static_cast<uint8_t>(rng.below(32)),
              static_cast<uint8_t>(rng.below(32)),
              static_cast<uint8_t>(rng.below(32)));
        n += 1;
    } else if (cat < 92 && spec.withFp) {
        // fp <-> int traffic
        isa::DecodedInst mv;
        if (rng.chance(50)) {
            mv.op = Op::FmvDX;
            mv.rd = static_cast<uint8_t>(rng.below(32));
            mv.rs1 = pickRs(rng);
        } else {
            mv.op = Op::FmvXD;
            mv.rd = pickRd(rng);
            mv.rs1 = static_cast<uint8_t>(rng.below(32));
        }
        a.emit(mv);
        n += 1;
    } else if (cat < 96 && spec.withAmo) {
        Op op = AMOS[rng.below(std::size(AMOS))];
        sandboxAddr(a, rng, isa::memSize(op));
        a.rtype(op, pickRd(rng), t0, pickRs(rng));
        n += 4;
    } else if (spec.withAmo) {
        // LR/SC sequence. Half the time a bare pair, half a
        // load-modify-conditional-store with a branch on the SC result.
        bool dbl = rng.chance(50);
        sandboxAddr(a, rng, 8);
        uint8_t lrd = pickRd(rng);
        while (lrd == t0)
            lrd = pickRd(rng);
        a.rtype(dbl ? Op::LrD : Op::LrW, lrd, t0, 0);
        n += 4;
        if (rng.chance(50)) {
            a.rtype(dbl ? Op::ScD : Op::ScW, pickRd(rng), t0, pickRs(rng));
            n += 1;
        } else {
            uint8_t mod = pickRd(rng);
            while (mod == t0)
                mod = pickRd(rng);
            a.rtype(ALU_R[rng.below(std::size(ALU_R))], mod, lrd,
                    pickRs(rng));
            uint8_t flag = pickRd(rng);
            while (flag == t0)
                flag = pickRd(rng);
            a.rtype(dbl ? Op::ScD : Op::ScW, flag, t0, mod);
            Label done = a.newLabel();
            a.branch(Op::Bne, flag, zero, done);
            a.rtype(Op::Add, pickRd(rng), mod, flag);
            a.bind(done);
            n += 4;
        }
    } else {
        aluRChunk();
    }
    return n;
}

/** Bytes of the register-seeding prologue assemble() emits for @p sp. */
size_t
prologueBytes(const ShrinkableProgram &sp)
{
    size_t n = Asm::liBytes(sp.layout.dataBase);
    for (unsigned r = 1; r < 32; ++r)
        if (r != s0)
            n += Asm::liBytes(sp.xInit[r]);
    if (sp.withFp) {
        for (unsigned r = 0; r < 32; ++r)
            n += Asm::liBytes(sp.fInit[r]) + 4;
        n += Asm::liBytes(sp.xInit[t0]);
    }
    return n;
}

} // namespace

ShrinkableProgram
randomShrinkable(Rng &rng, const RandomSpec &spec, const Layout &layout)
{
    ShrinkableProgram sp;
    sp.layout = layout;
    sp.withFp = spec.withFp;
    sp.dataSeed = rng.next();
    for (unsigned r = 1; r < 32; ++r)
        sp.xInit[r] = rng.next();
    if (spec.withFp)
        for (unsigned r = 0; r < 32; ++r)
            sp.fInit[r] = rng.next();

    // Every chunk is one to MAX_CHUNK_INSTS instructions of at most 4
    // bytes each, and the last one starts below spec.nInsts: neither
    // buffer regrows.
    Asm a(0, 4 * (spec.nInsts + MAX_CHUNK_INSTS));
    sp.chunks.reserve(spec.nInsts);
    unsigned total = 0;
    while (total < spec.nInsts) {
        Chunk c;
        c.offset = static_cast<uint32_t>(a.size());
        c.nInsts = randomChunk(a, rng, spec);
        a.resolveLabels();
        c.size = static_cast<uint32_t>(a.size() - c.offset);
        sp.chunks.push_back(c);
        total += c.nInsts;
    }
    sp.code = a.finishBytes();
    return sp;
}

ShrinkableProgram
ShrinkableProgram::withChunks(const std::vector<size_t> &keep) const
{
    ShrinkableProgram out = *this;
    out.chunks.clear();
    for (size_t i : keep)
        out.chunks.push_back(chunks[i]);
    return out;
}

Program
ShrinkableProgram::assemble() const
{
    Program prog;
    prog.name = name;
    prog.entry = layout.codeBase;
    prog.segments.reserve(2);

    // 4 KB sandbox for memory operations, filled from the data seed so
    // a corpus file reproduces the exact memory image.
    std::vector<uint8_t> sandbox(4096);
    Rng drng(dataSeed);
    for (auto &b : sandbox)
        b = static_cast<uint8_t>(drng.next());
    prog.segments.push_back({layout.dataBase, std::move(sandbox)});

    size_t size = prologueBytes(*this) + Asm::exitBytes(0);
    for (const auto &c : chunks)
        size += c.size;
    Asm a(layout.codeBase, size);
    for (unsigned r = 1; r < 32; ++r) {
        if (r == s0)
            continue;
        a.li(static_cast<uint8_t>(r), xInit[r]);
    }
    if (withFp) {
        for (unsigned r = 0; r < 32; ++r) {
            a.li(t0, fInit[r]);
            isa::DecodedInst mv;
            mv.op = Op::FmvDX;
            mv.rd = static_cast<uint8_t>(r);
            mv.rs1 = t0;
            a.emit(mv);
        }
        a.li(t0, xInit[t0]); // restore t0's integer seed
    }
    a.li(s0, layout.dataBase);

    for (const auto &c : chunks)
        a.bytes(bytesOf(c), c.size);

    a.exit(0);
    if (a.size() != size)
        panic("shrinkable: assembled %zu bytes, sized %zu", a.size(), size);
    prog.segments.push_back(a.finish());
    return prog;
}

unsigned
ShrinkableProgram::bodyInsts() const
{
    unsigned total = 0;
    for (const auto &c : chunks)
        total += c.nInsts;
    return total;
}

std::string
ShrinkableProgram::serialize() const
{
    char buf[96];
    std::string out = "minjie-program v1\n";
    out += "name " + name + "\n";
    std::snprintf(buf, sizeof(buf), "fp %d\n", withFp ? 1 : 0);
    out += buf;
    std::snprintf(buf, sizeof(buf), "dataseed 0x%llx\n",
                  static_cast<unsigned long long>(dataSeed));
    out += buf;
    std::snprintf(buf, sizeof(buf), "layout 0x%llx 0x%llx 0x%llx 0x%llx\n",
                  static_cast<unsigned long long>(layout.codeBase),
                  static_cast<unsigned long long>(layout.auxCode),
                  static_cast<unsigned long long>(layout.dataBase),
                  static_cast<unsigned long long>(layout.stackTop));
    out += buf;
    for (unsigned r = 1; r < 32; ++r) {
        std::snprintf(buf, sizeof(buf), "x%u 0x%llx\n", r,
                      static_cast<unsigned long long>(xInit[r]));
        out += buf;
    }
    if (withFp) {
        for (unsigned r = 0; r < 32; ++r) {
            std::snprintf(buf, sizeof(buf), "f%u 0x%llx\n", r,
                          static_cast<unsigned long long>(fInit[r]));
            out += buf;
        }
    }
    static const char HEX[] = "0123456789abcdef";
    for (const auto &c : chunks) {
        std::snprintf(buf, sizeof(buf), "chunk %u ", c.nInsts);
        out += buf;
        for (const uint8_t *b = bytesOf(c); b != bytesOf(c) + c.size; ++b) {
            out += HEX[*b >> 4];
            out += HEX[*b & 15];
        }
        out += "\n";
    }
    out += "end\n";
    return out;
}

bool
ShrinkableProgram::deserialize(const std::string &text,
                               ShrinkableProgram &out)
{
    out = ShrinkableProgram{};
    std::vector<uint8_t> code; // the arena, sealed once parsed
    auto fail = [&] {
        out = ShrinkableProgram{};
        return false;
    };
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != "minjie-program v1")
        return fail();
    bool sawEnd = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line == "end") {
            sawEnd = true;
            break;
        }
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "name") {
            ls >> out.name;
        } else if (tag == "fp") {
            int v = 0;
            ls >> v;
            out.withFp = v != 0;
        } else if (tag == "dataseed") {
            ls >> std::hex >> out.dataSeed;
        } else if (tag == "layout") {
            ls >> std::hex >> out.layout.codeBase >> out.layout.auxCode >>
                out.layout.dataBase >> out.layout.stackTop;
        } else if (tag.size() > 1 && (tag[0] == 'x' || tag[0] == 'f')) {
            unsigned r = static_cast<unsigned>(
                std::strtoul(tag.c_str() + 1, nullptr, 10));
            if (r >= 32)
                return fail();
            uint64_t v = 0;
            ls >> std::hex >> v;
            (tag[0] == 'x' ? out.xInit : out.fInit)[r] = v;
        } else if (tag == "chunk") {
            Chunk c;
            std::string hexBytes;
            ls >> std::dec >> c.nInsts >> hexBytes;
            if (hexBytes.size() % 2 != 0 ||
                code.size() + hexBytes.size() / 2 > UINT32_MAX)
                return fail();
            c.offset = static_cast<uint32_t>(code.size());
            c.size = static_cast<uint32_t>(hexBytes.size() / 2);
            for (size_t i = 0; i < hexBytes.size(); i += 2) {
                char pair[3] = {hexBytes[i], hexBytes[i + 1], 0};
                char *endp = nullptr;
                code.push_back(static_cast<uint8_t>(
                    std::strtoul(pair, &endp, 16)));
                if (endp != pair + 2)
                    return fail();
            }
            out.chunks.push_back(c);
        } else {
            return fail(); // unknown tag: refuse rather than misparse
        }
    }
    if (!sawEnd)
        return fail();
    out.code = std::move(code);
    return true;
}

} // namespace minjie::workload
