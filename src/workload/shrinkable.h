/**
 * @file
 * Shrinkable random programs for fuzz co-simulation campaigns.
 *
 * A random program is represented as a fixed prologue (register seeding,
 * sandbox anchor) plus a list of *chunks*: short, self-contained,
 * position-independent instruction sequences. Because every chunk is
 * independent of its neighbours (branches resolve within the chunk,
 * memory operations are re-anchored off s0 each time), any subset of
 * chunks assembles into a valid program. That property is what lets the
 * campaign shrinker delta-debug a failing program down to a minimal
 * reproducer, and what makes corpus files replayable byte-for-byte.
 */

#ifndef MINJIE_WORKLOAD_SHRINKABLE_H
#define MINJIE_WORKLOAD_SHRINKABLE_H

#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/programs.h"

namespace minjie::workload {

/** Knobs for random program generation. */
struct RandomSpec
{
    unsigned nInsts = 400; ///< approximate body instruction count
    bool withFp = false;   ///< include fp arithmetic and fp<->int moves
    bool withRvc = false;  ///< include compressed (RVC) sequences
    bool withAmo = true;   ///< include AMO and LR/SC sequences
};

/** A self-contained, position-independent body fragment: @c size
 *  bytes at @c offset in its program's code arena. */
struct Chunk
{
    uint32_t offset = 0;
    uint32_t size = 0;
    unsigned nInsts = 0;
};

/**
 * A random program in shrinkable form: initial register values, the
 * sandbox-fill seed, and the chunk list. assemble() produces the
 * loadable Program; dropping chunks yields smaller but still-valid
 * programs with the identical prologue.
 */
struct ShrinkableProgram
{
    std::string name = "random";
    uint64_t xInit[32] = {}; ///< integer register seeds (x0/s0 ignored)
    uint64_t fInit[32] = {}; ///< fp register seeds (when withFp)
    bool withFp = false;
    uint64_t dataSeed = 0;   ///< sandbox contents = Rng(dataSeed) stream
    /** The code arena: every generated chunk's bytes, back to back.
     *  Immutable, so copies and chunk subsets share it. */
    SegmentBytes code;
    std::vector<Chunk> chunks;
    Layout layout;

    Program assemble() const;

    /** This program with only the chunks at indices @p keep, in that
     *  order. Copies chunk descriptors only: the arena is shared. */
    ShrinkableProgram withChunks(const std::vector<size_t> &keep) const;

    /** The bytes of @p c. */
    const uint8_t *
    bytesOf(const Chunk &c) const
    {
        return code.data() + c.offset;
    }

    /** Total body instructions across all chunks. */
    unsigned bodyInsts() const;

    /**
     * Text serialization for corpus files (versioned, line-oriented).
     * deserialize() accepts exactly what serialize() emits and returns
     * false, with @p out empty, on malformed input.
     */
    std::string serialize() const;
    static bool deserialize(const std::string &text, ShrinkableProgram &out);
};

/** Generate a full shrinkable random program. */
ShrinkableProgram randomShrinkable(Rng &rng, const RandomSpec &spec,
                                   const Layout &layout = {});

} // namespace minjie::workload

#endif // MINJIE_WORKLOAD_SHRINKABLE_H
