#include <gtest/gtest.h>

#include "obs/serialize.h"
#include "obs/trace.h"

namespace {

using namespace minjie;
using namespace minjie::obs;

TEST(TraceBuffer, KeepsEventsInOrder)
{
    TraceBuffer t(8);
    for (uint64_t i = 0; i < 5; ++i)
        t.record(Ev::Commit, i, 0x80000000 + 4 * i, i * 10);

    EXPECT_EQ(t.size(), 5u);
    EXPECT_EQ(t.recorded(), 5u);
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(evs[i].cycle, i);
        EXPECT_EQ(evs[i].pc, 0x80000000 + 4 * i);
        EXPECT_EQ(evs[i].arg0, i * 10);
    }
}

TEST(TraceBuffer, RingOverwritesOldest)
{
    TraceBuffer t(4);
    for (uint64_t i = 0; i < 10; ++i)
        t.record(Ev::Fetch, i, i);

    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.recorded(), 10u); // drops are visible, not silent
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(evs[i].cycle, 6 + i); // cycles 6..9 survive
}

TEST(TraceBuffer, LastKReturnsNewestWindow)
{
    TraceBuffer t(16);
    for (uint64_t i = 0; i < 12; ++i)
        t.record(Ev::Issue, i, i);

    auto win = t.lastK(3);
    ASSERT_EQ(win.size(), 3u);
    EXPECT_EQ(win[0].cycle, 9u);
    EXPECT_EQ(win[2].cycle, 11u);
    EXPECT_EQ(t.lastK(100).size(), 12u); // clamped to size
}

TEST(TraceBuffer, ClearResets)
{
    TraceBuffer t(4);
    t.record(Ev::Rename, 1, 2);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.events().empty());
}

TEST(TraceBuffer, EvNamesAreStable)
{
    // .mjt consumers key on these strings; renames are format breaks.
    EXPECT_STREQ(evName(Ev::Fetch), "fetch");
    EXPECT_STREQ(evName(Ev::Commit), "commit");
    EXPECT_STREQ(evName(Ev::CacheMiss), "cache_miss");
    EXPECT_STREQ(evName(Ev::TlbWalk), "tlb_walk");
    EXPECT_STREQ(evName(Ev::FaultInject), "fault_inject");
    EXPECT_STREQ(evName(Ev::Divergence), "divergence");
}

RunArtifact
makeArtifact()
{
    RunArtifact art;
    art.runLabel = "coremark@nh";
    art.counters.set("core0.cycles", 12345);
    art.counters.set("core0.topdown.retiring", 777);
    TraceEvent e{};
    e.cycle = 42;
    e.pc = 0x80001234;
    e.arg0 = 0xdeadbeefcafe;
    e.arg1 = 7;
    e.kind = Ev::Commit;
    e.hart = 1;
    e.aux = 3;
    art.events.push_back(e);
    return art;
}

TEST(Mjt, RoundTripsExactly)
{
    RunArtifact art = makeArtifact();
    std::string bytes = serializeMjt(art);

    RunArtifact back;
    ASSERT_TRUE(parseMjt(bytes, back));
    EXPECT_EQ(back, art);
    EXPECT_EQ(back.runLabel, "coremark@nh");
    EXPECT_EQ(back.counters.get("core0.cycles"), 12345u);
    ASSERT_EQ(back.events.size(), 1u);
    EXPECT_EQ(back.events[0].arg0, 0xdeadbeefcafeu);
    EXPECT_EQ(back.events[0].kind, Ev::Commit);
    EXPECT_EQ(back.events[0].hart, 1u);
    EXPECT_EQ(back.events[0].aux, 3u);
}

TEST(Mjt, SerializationIsDeterministic)
{
    EXPECT_EQ(serializeMjt(makeArtifact()), serializeMjt(makeArtifact()));
}

TEST(Mjt, RejectsCorruptInput)
{
    RunArtifact art;
    EXPECT_FALSE(parseMjt("", art));
    EXPECT_FALSE(parseMjt("not an artifact", art));

    std::string bytes = serializeMjt(makeArtifact());
    bytes[0] = 'X'; // bad magic
    EXPECT_FALSE(parseMjt(bytes, art));

    std::string truncated = serializeMjt(makeArtifact());
    truncated.resize(truncated.size() - 3);
    EXPECT_FALSE(parseMjt(truncated, art));

    std::string padded = serializeMjt(makeArtifact()) + "junk";
    EXPECT_FALSE(parseMjt(padded, art)); // trailing bytes rejected

    // Counter keys are written in ascending order; a repeated or
    // out-of-order key is corrupt, not a second value.
    RunArtifact two;
    two.counters.set("a", 1);
    two.counters.set("b", 2);
    std::string swapped = serializeMjt(two);
    size_t a = swapped.find('a'), b = swapped.find('b');
    ASSERT_TRUE(parseMjt(swapped, art));
    swapped[b] = 'a';
    EXPECT_FALSE(parseMjt(swapped, art)); // "a", "a"
    swapped[a] = 'b';
    EXPECT_FALSE(parseMjt(swapped, art)); // "b", "a"
}

TEST(Mjt, BytesArePinned)
{
    // Golden pin of the .mjt encoding across commits.
    std::string bytes = serializeMjt(makeArtifact());
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes)
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    EXPECT_EQ(bytes.size(), 121u);
    EXPECT_EQ(h, 0x565c9632bde9c88bULL);
}

TEST(Mjt, ChromeJsonContainsEventsAndCounters)
{
    std::string json = toChromeJson(makeArtifact());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"commit\""), std::string::npos);
    EXPECT_NE(json.find("core0.cycles"), std::string::npos);
    EXPECT_NE(json.find("coremark@nh"), std::string::npos);
}

} // namespace
