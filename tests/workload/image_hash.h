/**
 * @file
 * FNV-1a hashes of program images, for the tests that pin generator
 * output.
 */

#ifndef MINJIE_TESTS_WORKLOAD_IMAGE_HASH_H
#define MINJIE_TESTS_WORKLOAD_IMAGE_HASH_H

#include <cstdint>
#include <cstddef>

#include "workload/programs.h"

namespace minjie::workload::test {

/** FNV-1a over 64-bit little-endian words, then the tail bytes. */
inline uint64_t
fnv(uint64_t h, const uint8_t *p, size_t n)
{
    constexpr uint64_t prime = 0x100000001b3ULL;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w = 0;
        for (unsigned b = 0; b < 8; ++b)
            w |= static_cast<uint64_t>(p[i + b]) << (8 * b);
        h = (h ^ w) * prime;
    }
    for (; i < n; ++i)
        h = (h ^ p[i]) * prime;
    return h;
}

/** Hash of every segment's base, size and bytes, in order, folded
 *  into @p h. */
inline uint64_t
imageHash(const Program &prog, uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const auto &seg : prog.segments) {
        const uint64_t head[2] = {seg.base, seg.bytes.size()};
        h = fnv(h, reinterpret_cast<const uint8_t *>(head), sizeof head);
        h = fnv(h, seg.bytes.data(), seg.bytes.size());
    }
    return h;
}

} // namespace minjie::workload::test

#endif // MINJIE_TESTS_WORKLOAD_IMAGE_HASH_H
