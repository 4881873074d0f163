/**
 * @file
 * The byte codec (common/bytes.h): fixed little-endian layout, and a
 * reader that never reads outside its buffer and stays failed.
 */

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace {

using namespace minjie;

TEST(Bytes, WriterIsLittleEndianWhateverTheHost)
{
    std::vector<uint8_t> v;
    ByteWriter w(v);
    w.u8(0x01);
    w.u16(0x0302);
    w.u32(0x07060504);
    w.u64(0x0f0e0d0c0b0a0908ULL);
    w.str("ab");
    const uint8_t raw[] = {0xff, 0xfe};
    w.bytes(raw, 2);
    const std::vector<uint8_t> expect = {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        2, 0, 0, 0, 'a', 'b', 0xff, 0xfe};
    EXPECT_EQ(v, expect);
}

TEST(Bytes, ReaderRoundTripsAndChecksExactLength)
{
    std::vector<uint8_t> v;
    ByteWriter w(v);
    w.u8(7);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(~0ULL - 1);
    w.str("key");
    w.u8(9);

    ByteReader r(v);
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u16(), 0xbeefu);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), ~0ULL - 1);
    EXPECT_EQ(r.str(), "key");
    EXPECT_FALSE(r.done()) << "one byte left";
    EXPECT_EQ(r.remaining(), 1u);
    EXPECT_EQ(r.u8(), 9u);
    EXPECT_TRUE(r.done());
}

TEST(Bytes, FailureIsStickyAndReadsNothing)
{
    const std::vector<uint8_t> v = {1, 2, 3, 4, 5};
    ByteReader r(v);
    EXPECT_EQ(r.u32(), 0x04030201u);
    EXPECT_EQ(r.u16(), 0u) << "a read that does not fit yields zero";
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.pos(), 4u) << "and does not move";
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(r.u8(), 0u) << "a later read that would fit stays failed";
    EXPECT_EQ(r.span(0), nullptr);
    EXPECT_FALSE(r.done());
}

TEST(Bytes, LengthsAndOffsetsAreBounded)
{
    // A string length of ~0 fails instead of reading past the buffer.
    std::vector<uint8_t> v;
    ByteWriter w(v);
    w.u32(~0U);
    w.u8('x');
    ByteReader s(v);
    EXPECT_EQ(s.str(), "");
    EXPECT_FALSE(s.ok());

    ByteReader a(v);
    EXPECT_EQ(a.span(~0ULL), nullptr);
    EXPECT_FALSE(a.ok());

    ByteReader b(v);
    b.seek(v.size()); // the end itself is a valid position
    EXPECT_TRUE(b.done());
    b.seek(v.size() + 1);
    EXPECT_FALSE(b.ok());

    ByteReader c(v);
    c.seek(~0ULL);
    EXPECT_FALSE(c.ok());
    c.seek(0); // no seek clears a failure
    EXPECT_FALSE(c.ok());

    ByteReader d(v);
    d.seek(4);
    EXPECT_EQ(d.u8(), 'x');
    d.fail();
    EXPECT_FALSE(d.done());
}

} // namespace
