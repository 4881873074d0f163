/**
 * @file
 * The binary byte codec: a little-endian ByteWriter and a bounded
 * ByteReader. Every binary format of the tree — `.mjk` packs and the
 * arch blobs they embed, slice blobs piped back by sample workers, and
 * `.mjt` run artifacts — encodes and decodes through these two
 * classes, so field widths, byte order and bounds checks live in one
 * place.
 *
 * Integers are written byte by byte, least significant first, whatever
 * the host, so encoded bytes are identical across hosts and compilers.
 * The reader never reads outside its buffer: a read that does not fit
 * sets a sticky failure flag and returns zero (or a null span, or an
 * empty string) without moving, so a decoder may read a whole record
 * and test ok() once.
 */

#ifndef MINJIE_COMMON_BYTES_H
#define MINJIE_COMMON_BYTES_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace minjie {

/** Appends little-endian fields to a byte vector. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<uint8_t> &out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }
    void u16(uint16_t v) { le(v, 2); }
    void u32(uint32_t v) { le(v, 4); }
    void u64(uint64_t v) { le(v, 8); }

    /** @p n raw bytes, one bulk copy. */
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        out_.insert(out_.end(), b, b + n);
    }

    /** A u32 length, then the bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

  private:
    void
    le(uint64_t v, unsigned n)
    {
        uint8_t b[8];
        for (unsigned i = 0; i < n; ++i)
            b[i] = static_cast<uint8_t>(v >> (8 * i));
        bytes(b, n);
    }

    std::vector<uint8_t> &out_;
};

/** Bounded little-endian reader over borrowed bytes. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t len) : data_(data), len_(len) {}
    explicit ByteReader(const std::vector<uint8_t> &v)
        : ByteReader(v.data(), v.size())
    {
    }
    explicit ByteReader(std::string_view s)
        : ByteReader(reinterpret_cast<const uint8_t *>(s.data()), s.size())
    {
    }

    uint8_t u8() { return static_cast<uint8_t>(le(1)); }
    uint16_t u16() { return static_cast<uint16_t>(le(2)); }
    uint32_t u32() { return static_cast<uint32_t>(le(4)); }
    uint64_t u64() { return le(8); }

    /** The next @p n bytes in place, or nullptr when fewer remain. */
    const uint8_t *
    span(uint64_t n)
    {
        if (!ok_ || n > len_ - pos_) {
            ok_ = false;
            return nullptr;
        }
        const uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    /** A u32 length, then that many bytes. */
    std::string
    str()
    {
        uint32_t n = u32();
        const uint8_t *p = span(n);
        return p ? std::string(reinterpret_cast<const char *>(p), n)
                 : std::string();
    }

    /** Move to absolute offset @p off; past the end fails. */
    void
    seek(uint64_t off)
    {
        if (off > len_)
            ok_ = false;
        else if (ok_)
            pos_ = off;
    }

    size_t pos() const { return pos_; }
    size_t remaining() const { return ok_ ? len_ - pos_ : 0; }
    bool ok() const { return ok_; }
    /** No read failed and every byte was consumed: the exact-length
     *  check of a whole-buffer format. */
    bool done() const { return ok_ && pos_ == len_; }
    void fail() { ok_ = false; }

  private:
    uint64_t
    le(unsigned n)
    {
        const uint8_t *p = span(n);
        uint64_t v = 0;
        for (unsigned i = 0; p && i < n; ++i)
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        return v;
    }

    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace minjie

#endif // MINJIE_COMMON_BYTES_H
