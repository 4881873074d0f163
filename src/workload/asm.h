/**
 * @file
 * In-memory RV64 assembler used to build workload programs.
 *
 * The paper runs SPEC CPU2006 binaries; we cannot ship those, so every
 * workload in this repository is assembled from scratch through this
 * builder (see DESIGN.md, substitution table).
 */

#ifndef MINJIE_WORKLOAD_ASM_H
#define MINJIE_WORKLOAD_ASM_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"
#include "common/zeroed_array.h"
#include "isa/decode.h"
#include "isa/encode.h"
#include "mem/physmem.h"

namespace minjie::workload {

/** ABI register numbers. */
enum Reg : uint8_t {
    zero = 0, ra = 1, sp = 2, gp = 3, tp = 4,
    t0 = 5, t1 = 6, t2 = 7,
    s0 = 8, s1 = 9,
    a0 = 10, a1 = 11, a2 = 12, a3 = 13, a4 = 14, a5 = 15,
    a6 = 16, a7 = 17,
    s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22, s7 = 23,
    s8 = 24, s9 = 25, s10 = 26, s11 = 27,
    t3 = 28, t4 = 29, t5 = 30, t6 = 31,
};

/** Forward-referenceable code label. */
struct Label
{
    uint32_t id = ~0u;
};

/**
 * A segment's bytes, immutable once built: a span and whatever keeps it
 * alive. Copies of a Program share them, and so does every memory that
 * maps them (Program::loadInto): the bytes live until their last holder
 * lets go.
 */
class SegmentBytes
{
  public:
    SegmentBytes() = default;
    /** Seal @p bytes: the buffer moves in, no byte is copied. */
    SegmentBytes(std::vector<uint8_t> bytes)
        : SegmentBytes(
              std::make_shared<const std::vector<uint8_t>>(std::move(bytes)))
    {
    }

    /**
     * @p n zero bytes, written once by @p fill(data) and sealed, with no
     * copy. From zeroed::kHugeBytes up they are a fresh mapping of their
     * own (ZeroedArray: huge extents, no zero-fill pass, unmapped when
     * the last holder lets go). Below that they are a heap vector: a
     * pooled mapping would keep its pages resident between builds,
     * where the heap reuses them for anything.
     */
    template <typename Fill>
    static SegmentBytes
    written(size_t n, Fill &&fill)
    {
        if (n < zeroed::kHugeBytes) {
            std::vector<uint8_t> v(n);
            fill(v.data());
            return SegmentBytes(std::move(v));
        }
        auto buf = std::make_shared<ZeroedArray<uint8_t>>(n);
        fill(buf->data());
        return SegmentBytes(std::move(buf));
    }

    const uint8_t *data() const { return data_; }
    size_t size() const { return size_; }
    const uint8_t *begin() const { return data_; }
    const uint8_t *end() const { return data_ + size_; }
    uint8_t operator[](size_t i) const { return data_[i]; }
    /** What keeps data() alive, for PhysMem::map(). */
    const mem::PhysMem::Owner &owner() const { return owner_; }

    bool
    operator==(const SegmentBytes &o) const
    {
        return std::equal(begin(), end(), o.begin(), o.end());
    }

  private:
    /** The bytes of @p buf (a byte vector or ZeroedArray), held by it. */
    template <typename Buf>
    explicit SegmentBytes(std::shared_ptr<Buf> buf)
        : owner_(buf), data_(buf->data()), size_(buf->size())
    {
    }

    mem::PhysMem::Owner owner_;
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
};

/**
 * A loadable program: code+data segments plus the entry point.
 */
struct Program
{
    std::string name;
    Addr entry = 0;
    struct Segment
    {
        Addr base;
        SegmentBytes bytes;
    };
    std::vector<Segment> segments;

    /** Map every segment into @p pm (PhysMem::map): whole pages are
     *  read in place and copied only when written. */
    void
    loadInto(mem::PhysMem &pm) const
    {
        for (const auto &seg : segments)
            pm.map(seg.base, seg.bytes.data(), seg.bytes.size(),
                   seg.bytes.owner());
    }
};

/**
 * Linear assembler with label fixups. Emits 32-bit encodings only
 * (compressed forms are exercised through the decoder tests instead).
 */
class Asm
{
  public:
    /** Reserves @p reserveBytes up front, so emitting that much does
     *  not regrow the buffer as it goes. */
    explicit Asm(Addr base, size_t reserveBytes = 128) : base_(base)
    {
        code_.reserve(reserveBytes);
    }

    Addr here() const { return base_ + code_.size(); }
    Addr base() const { return base_; }
    /** Bytes emitted so far. */
    size_t size() const { return code_.size(); }

    // ---- labels ----
    Label
    newLabel()
    {
        labels_.push_back(~0ULL);
        return {static_cast<uint32_t>(labels_.size() - 1)};
    }

    void bind(Label l) { labels_[l.id] = here(); }

    Label
    boundLabel()
    {
        Label l = newLabel();
        bind(l);
        return l;
    }

    // ---- generic emitters ----
    void
    emit(const isa::DecodedInst &di)
    {
        uint32_t w = isa::encode(di);
        code_.push_back(static_cast<uint8_t>(w & 0xff));
        code_.push_back(static_cast<uint8_t>((w >> 8) & 0xff));
        code_.push_back(static_cast<uint8_t>((w >> 16) & 0xff));
        code_.push_back(static_cast<uint8_t>((w >> 24) & 0xff));
    }

    /** Emit a raw 16-bit (compressed) encoding. */
    void
    raw16(uint16_t w)
    {
        code_.push_back(static_cast<uint8_t>(w & 0xff));
        code_.push_back(static_cast<uint8_t>((w >> 8) & 0xff));
    }

    /**
     * Append pre-assembled position-independent bytes (e.g. a shrinkable
     * program chunk). The bytes must not contain unresolved fixups.
     */
    void
    bytes(const uint8_t *blob, size_t n)
    {
        code_.insert(code_.end(), blob, blob + n);
    }

    void
    bytes(const std::vector<uint8_t> &blob)
    {
        bytes(blob.data(), blob.size());
    }

    void
    rtype(isa::Op op, uint8_t rd, uint8_t rs1, uint8_t rs2)
    {
        isa::DecodedInst di;
        di.op = op;
        di.rd = rd;
        di.rs1 = rs1;
        di.rs2 = rs2;
        emit(di);
    }

    void
    itype(isa::Op op, uint8_t rd, uint8_t rs1, int64_t imm)
    {
        checkImm(op, imm);
        isa::DecodedInst di;
        di.op = op;
        di.rd = rd;
        di.rs1 = rs1;
        di.imm = imm;
        emit(di);
    }

    /** load: rd <- [rs1 + off] */
    void
    load(isa::Op op, uint8_t rd, int64_t off, uint8_t rs1)
    {
        itype(op, rd, rs1, off);
    }

    /** store: [rs1 + off] <- rs2 */
    void
    store(isa::Op op, uint8_t rs2, int64_t off, uint8_t rs1)
    {
        checkImm(op, off);
        isa::DecodedInst di;
        di.op = op;
        di.rs1 = rs1;
        di.rs2 = rs2;
        di.imm = off;
        emit(di);
    }

    void
    branch(isa::Op op, uint8_t rs1, uint8_t rs2, Label target)
    {
        fixups_.push_back({code_.size(), target.id, FixKind::Branch});
        isa::DecodedInst di;
        di.op = op;
        di.rs1 = rs1;
        di.rs2 = rs2;
        emit(di);
    }

    void
    jal(uint8_t rd, Label target)
    {
        fixups_.push_back({code_.size(), target.id, FixKind::Jal});
        isa::DecodedInst di;
        di.op = isa::Op::Jal;
        di.rd = rd;
        emit(di);
    }

    void j(Label target) { jal(zero, target); }
    void call(Label target) { jal(ra, target); }
    void ret() { itype(isa::Op::Jalr, zero, ra, 0); }
    void jr(uint8_t rs) { itype(isa::Op::Jalr, zero, rs, 0); }
    void nop() { itype(isa::Op::Addi, zero, zero, 0); }

    void
    fp3(isa::Op op, uint8_t rd, uint8_t rs1, uint8_t rs2, uint8_t rs3 = 0)
    {
        isa::DecodedInst di;
        di.op = op;
        di.rd = rd;
        di.rs1 = rs1;
        di.rs2 = rs2;
        di.rs3 = rs3;
        emit(di);
    }

    void
    csr(isa::Op op, uint8_t rd, uint16_t addr, uint8_t rs1)
    {
        isa::DecodedInst di;
        di.op = op;
        di.rd = rd;
        di.rs1 = rs1;
        di.imm = addr;
        emit(di);
    }

    /** Load an arbitrary 64-bit constant (lui/addi/shift sequence). */
    void
    li(uint8_t rd, uint64_t value)
    {
        int64_t v = static_cast<int64_t>(value);
        if (v >= -2048 && v < 2048) {
            itype(isa::Op::Addi, rd, zero, v);
            return;
        }
        int64_t luiVal = 0, lo = 0;
        if (luiAddi(v, luiVal, lo)) {
            isa::DecodedInst di;
            di.op = isa::Op::Lui;
            di.rd = rd;
            di.imm = luiVal;
            emit(di);
            if (lo)
                itype(isa::Op::Addi, rd, rd, lo);
            return;
        }
        // General case: materialize the upper 32 bits, then append the
        // low 32 bits as 11+11+10-bit positive chunks (addi-safe).
        li(rd, static_cast<uint64_t>(v >> 32));
        uint32_t low = static_cast<uint32_t>(v);
        itype(isa::Op::Slli, rd, rd, 11);
        itype(isa::Op::Addi, rd, rd, (low >> 21) & 0x7ff);
        itype(isa::Op::Slli, rd, rd, 11);
        itype(isa::Op::Addi, rd, rd, (low >> 10) & 0x7ff);
        itype(isa::Op::Slli, rd, rd, 10);
        itype(isa::Op::Addi, rd, rd, low & 0x3ff);
    }

    /** Bytes li(rd, @p value) emits. */
    static size_t
    liBytes(uint64_t value)
    {
        int64_t v = static_cast<int64_t>(value);
        int64_t luiVal = 0, lo = 0;
        if (v >= -2048 && v < 2048)
            return 4;
        if (luiAddi(v, luiVal, lo))
            return lo ? 8 : 4;
        return liBytes(static_cast<uint64_t>(v >> 32)) + 24;
    }

    /** Exit the simulation with status @p code via the SimCtrl device. */
    void
    exit(uint64_t code, Addr simctrlBase = 0x40000000)
    {
        li(t6, simctrlBase);
        li(t5, (code << 1) | 1);
        store(isa::Op::Sd, t5, 0, t6);
        // Exit is asynchronous in the cycle model; spin afterwards.
        Label spin = boundLabel();
        j(spin);
    }

    /** Bytes exit(@p code, @p simctrlBase) emits. */
    static size_t
    exitBytes(uint64_t code, Addr simctrlBase = 0x40000000)
    {
        return liBytes(simctrlBase) + liBytes((code << 1) | 1) + 8;
    }

    /** Print the low byte of @p rs through SimCtrl. */
    void
    putchar(uint8_t rs, Addr simctrlBase = 0x40000000)
    {
        li(t6, simctrlBase);
        store(isa::Op::Sb, rs, 8, t6);
    }

    /** Finalize: resolve fixups and return the code segment. The code
     *  moves out, so the assembler is spent afterwards. */
    Program::Segment finish() { return {base_, finishBytes()}; }

    /** finish() as bare bytes. */
    std::vector<uint8_t>
    finishBytes()
    {
        resolveLabels();
        return std::move(code_);
    }

    /**
     * Patch every branch and jump emitted so far to its label, then
     * forget all labels: the code since the last call is
     * self-contained, and label ids start again from 0. One assembler
     * can so emit many position-independent pieces into one buffer.
     */
    void
    resolveLabels()
    {
        for (const auto &f : fixups_) {
            Addr target = labels_[f.label];
            Addr pc = base_ + f.offset;
            int64_t delta = static_cast<int64_t>(target) -
                            static_cast<int64_t>(pc);
            uint32_t w = read32(f.offset);
            isa::DecodedInst di = isa::decode32(w);
            di.imm = delta;
            uint32_t patched = isa::encode(di);
            write32(f.offset, patched);
        }
        fixups_.clear();
        labels_.clear();
    }

  private:
    /**
     * Split a 32-bit signed @p v into lui @p luiVal + addi @p lo. lui's
     * 20-bit immediate sign-extends on RV64, so values near INT32_MAX
     * (hi == 0x80000) do not split. @return whether @p v split.
     */
    static bool
    luiAddi(int64_t v, int64_t &luiVal, int64_t &lo)
    {
        if (v != static_cast<int32_t>(v))
            return false;
        int64_t hi = (v + 0x800) >> 12;
        lo = v - (hi << 12);
        luiVal = static_cast<int32_t>(hi << 12);
        return luiVal + lo == v;
    }

    /** Catch silently-truncating immediates at assembly time. */
    static void
    checkImm(isa::Op op, int64_t imm)
    {
        using isa::Op;
        switch (op) {
          case Op::Slli: case Op::Srli: case Op::Srai: case Op::Rori:
          case Op::SlliUw:
            if (imm < 0 || imm > 63)
                panic("asm: shift amount %lld out of range",
                      static_cast<long long>(imm));
            return;
          case Op::Slliw: case Op::Srliw: case Op::Sraiw: case Op::Roriw:
            if (imm < 0 || imm > 31)
                panic("asm: shift amount %lld out of range",
                      static_cast<long long>(imm));
            return;
          case Op::Csrrw: case Op::Csrrs: case Op::Csrrc:
          case Op::Csrrwi: case Op::Csrrsi: case Op::Csrrci:
            if (imm < 0 || imm > 0xfff)
                panic("asm: csr number %lld out of range",
                      static_cast<long long>(imm));
            return;
          case Op::Clz: case Op::Ctz: case Op::Cpop: case Op::Clzw:
          case Op::Ctzw: case Op::Cpopw: case Op::SextB: case Op::SextH:
          case Op::OrcB: case Op::Rev8: case Op::Fence: case Op::FenceI:
            return;
          default:
            if (imm < -2048 || imm > 2047)
                panic("asm: 12-bit immediate %lld out of range for %s",
                      static_cast<long long>(imm), isa::opName(op));
            return;
        }
    }

    enum class FixKind { Branch, Jal };
    struct Fixup
    {
        size_t offset;
        uint32_t label;
        FixKind kind;
    };

    uint32_t
    read32(size_t off) const
    {
        return static_cast<uint32_t>(code_[off]) |
               (static_cast<uint32_t>(code_[off + 1]) << 8) |
               (static_cast<uint32_t>(code_[off + 2]) << 16) |
               (static_cast<uint32_t>(code_[off + 3]) << 24);
    }

    void
    write32(size_t off, uint32_t w)
    {
        code_[off] = static_cast<uint8_t>(w & 0xff);
        code_[off + 1] = static_cast<uint8_t>((w >> 8) & 0xff);
        code_[off + 2] = static_cast<uint8_t>((w >> 16) & 0xff);
        code_[off + 3] = static_cast<uint8_t>((w >> 24) & 0xff);
    }

    Addr base_;
    std::vector<uint8_t> code_;
    std::vector<Addr> labels_;
    std::vector<Fixup> fixups_;
};

} // namespace minjie::workload

#endif // MINJIE_WORKLOAD_ASM_H
