/**
 * Shrinkable random programs: generator output pinned byte for byte,
 * corpus-text round trips and chunk subsets.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "image_hash.h"
#include "workload/shrinkable.h"

namespace {

using namespace minjie;
using namespace minjie::workload;
using minjie::workload::test::fnv;
using minjie::workload::test::imageHash;

RandomSpec
specOf(bool fp, bool rvc, bool amo)
{
    RandomSpec s;
    s.nInsts = 300;
    s.withFp = fp;
    s.withRvc = rvc;
    s.withAmo = amo;
    return s;
}

/** Every chunk index of @p sp but each third, from the second on. */
std::vector<size_t>
subsetOf(const ShrinkableProgram &sp)
{
    std::vector<size_t> keep;
    for (size_t i = 0; i < sp.chunks.size(); ++i)
        if (i % 3 != 1)
            keep.push_back(i);
    return keep;
}

void
expectSameImage(const Program &want, const Program &got)
{
    EXPECT_EQ(want.entry, got.entry);
    ASSERT_EQ(want.segments.size(), got.segments.size());
    for (size_t i = 0; i < want.segments.size(); ++i) {
        EXPECT_EQ(want.segments[i].base, got.segments[i].base);
        EXPECT_EQ(want.segments[i].bytes, got.segments[i].bytes);
    }
}

TEST(Shrinkable, ProgramsArePinned)
{
    // Eight seeds per spec, folded into one hash each of the assembled
    // images, the corpus texts and a chunk subset's images. A generator
    // change that moves any of them changes what every campaign job
    // runs and what every corpus file holds; update the table only for
    // a deliberate change.
    struct Pin
    {
        const char *name;
        RandomSpec spec;
        uint64_t image, text, subset;
    };
    const Pin pins[] = {
        {"int", specOf(false, false, true),
         0xef6c204e01b7957dULL, 0x0768488041259d63ULL, 0x8ef99f747345f847ULL},
        {"fp", specOf(true, false, true),
         0xde4dbbb29323490dULL, 0xffa24e4223386629ULL, 0x73aaf574d2e44e88ULL},
        {"rvc", specOf(false, true, true),
         0x167299e4bfb02277ULL, 0x00bfb668fe28b1d0ULL, 0x465492a7a3a3ad53ULL},
        {"fp+rvc", specOf(true, true, true),
         0xce126ad89a45769cULL, 0x58d29b2ba0d9249bULL, 0xc5748e1bcbb5ab7aULL},
        {"no-amo", specOf(false, false, false),
         0xc8533f14ce13fd45ULL, 0x318cba57f22c5e70ULL, 0xd273703cf1e48644ULL},
    };
    for (const Pin &pin : pins) {
        uint64_t image = 0xcbf29ce484222325ULL;
        uint64_t text = image, subset = image;
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            Rng rng(seed);
            const ShrinkableProgram sp = randomShrinkable(rng, pin.spec);
            const Program prog = sp.assemble();
            image = imageHash(prog, image);
            const std::string t = sp.serialize();
            text = fnv(text, reinterpret_cast<const uint8_t *>(t.data()),
                       t.size());
            const ShrinkableProgram part = sp.withChunks(subsetOf(sp));
            subset = imageHash(part.assemble(), subset);

            // The text reproduces the program, and so does a subset's.
            ShrinkableProgram back;
            ASSERT_TRUE(ShrinkableProgram::deserialize(t, back));
            EXPECT_EQ(back.serialize(), t);
            expectSameImage(prog, back.assemble());
            ShrinkableProgram partBack;
            ASSERT_TRUE(
                ShrinkableProgram::deserialize(part.serialize(), partBack));
            expectSameImage(part.assemble(), partBack.assemble());
        }
        EXPECT_EQ(image, pin.image)
            << pin.name << " image: 0x" << std::hex << image;
        EXPECT_EQ(text, pin.text)
            << pin.name << " text: 0x" << std::hex << text;
        EXPECT_EQ(subset, pin.subset)
            << pin.name << " subset: 0x" << std::hex << subset;
    }
}

TEST(Shrinkable, ChunkSubsetsShareTheArena)
{
    Rng rng(3);
    const ShrinkableProgram sp =
        randomShrinkable(rng, specOf(true, true, true));
    ASSERT_GT(sp.chunks.size(), 3u);
    // Chunks tile the arena in generation order.
    uint32_t end = 0;
    for (const Chunk &c : sp.chunks) {
        EXPECT_EQ(c.offset, end);
        EXPECT_GT(c.size, 0u);
        EXPECT_LE(c.size, 4 * c.nInsts);
        end = c.offset + c.size;
    }
    EXPECT_EQ(end, sp.code.size());

    const ShrinkableProgram part = sp.withChunks({2, 0});
    EXPECT_EQ(part.code.data(), sp.code.data());
    ASSERT_EQ(part.chunks.size(), 2u);
    EXPECT_EQ(part.chunks[0].offset, sp.chunks[2].offset);
    EXPECT_EQ(part.chunks[1].offset, sp.chunks[0].offset);
    EXPECT_EQ(part.bodyInsts(), sp.chunks[2].nInsts + sp.chunks[0].nInsts);

    // A subset's code segment is the full program's prologue, its
    // chunks in the order given, and the same exit sequence.
    const Program fullProg = sp.assemble(), cutProg = part.assemble();
    const SegmentBytes &full = fullProg.segments[1].bytes;
    const SegmentBytes &cut = cutProg.segments[1].bytes;
    size_t body = 0;
    for (const Chunk &c : sp.chunks)
        body += c.size;
    const size_t prologue = full.size() - body - 16;
    const size_t kept = sp.chunks[2].size + sp.chunks[0].size;
    ASSERT_EQ(cut.size(), prologue + kept + 16);
    std::vector<uint8_t> want(full.begin(), full.begin() + prologue);
    for (size_t i : {2, 0})
        want.insert(want.end(), sp.bytesOf(sp.chunks[i]),
                    sp.bytesOf(sp.chunks[i]) + sp.chunks[i].size);
    want.insert(want.end(), full.end() - 16, full.end());
    EXPECT_EQ(std::vector<uint8_t>(cut.begin(), cut.end()), want);
}

TEST(Shrinkable, MalformedTextLeavesProgramEmpty)
{
    Rng rng(5);
    const std::string good = randomShrinkable(rng, specOf(false, true, true))
                                 .serialize();
    for (const std::string &bad :
         {good.substr(0, good.size() - 4), // no "end"
          good.substr(0, good.find("chunk")) + "chunk 1 0g000000\nend\n",
          good.substr(0, good.find("chunk")) + "chunk 1 000\nend\n"}) {
        ShrinkableProgram out;
        EXPECT_FALSE(ShrinkableProgram::deserialize(bad, out));
        EXPECT_TRUE(out.chunks.empty());
        EXPECT_EQ(out.code.size(), 0u);
    }
}

} // namespace
