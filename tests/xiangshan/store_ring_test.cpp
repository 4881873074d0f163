#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "common/rng.h"
#include "xiangshan/store_ring.h"

namespace {

using namespace minjie;
using minjie::xs::StoreRing;

TEST(StoreRing, LoadForwardsFromTheYoungerOfTwoStores)
{
    const Addr slot = 0x80001008, mmio = 0x10000000;
    StoreRing ring(4);
    ring.push(slot, 1);
    ring.push(slot, 2);
    ring.push(mmio, 3);
    // The MMIO store commits while stores 1 and 2 still wait in the
    // store buffer: it retires out of FIFO order.
    ring.retire(3);
    EXPECT_EQ(ring.youngestBefore(slot, 4), 2u);
    EXPECT_EQ(ring.youngestBefore(slot, 2), 1u);
    EXPECT_EQ(ring.youngestBefore(slot, 1), 0u);
    EXPECT_EQ(ring.youngestBefore(slot + 8, 4), 0u);
    ring.retire(1); // drains oldest first
    EXPECT_EQ(ring.youngestBefore(slot, 4), 2u);
    ring.retire(2);
    EXPECT_EQ(ring.youngestBefore(slot, 4), 0u);
    EXPECT_EQ(ring.size(), 0u);
}

/** The ring against the map it replaced (8-byte slot -> seqs), under
 *  the core's rules: dispatch in program order while the store queue
 *  has room, in-order commit, MMIO stores retire at commit, the others
 *  enter a bounded store buffer that drains in order. */
TEST(StoreRing, MatchesSlotMapUnderCoreTraffic)
{
    const unsigned sqSize = 6, sbSize = 3;
    for (uint64_t seed = 0; seed < 32; ++seed) {
        Rng rng(0x57 + seed);
        StoreRing ring(sqSize + sbSize);
        std::map<Addr, std::vector<uint64_t>> ref;
        std::deque<std::pair<uint64_t, bool>> queued; // seq, mmio
        std::deque<uint64_t> buffer;
        std::map<uint64_t, Addr> slotOf;
        uint64_t nextSeq = 1;
        auto drop = [&](uint64_t seq) {
            auto &v = ref[slotOf[seq]];
            std::erase(v, seq);
            ring.retire(seq);
        };
        for (unsigned step = 0; step < 4000; ++step) {
            unsigned op = static_cast<unsigned>(rng.below(4));
            if (op == 0 && queued.size() < sqSize) {
                Addr slot = 0x80000000 + rng.below(4) * 8;
                bool mmio = rng.chance(40);
                uint64_t seq = nextSeq++;
                slotOf[seq] = slot;
                ref[slot].push_back(seq);
                ring.push(slot, seq);
                queued.emplace_back(seq, mmio);
            } else if (op == 1 && !queued.empty()) {
                auto [seq, mmio] = queued.front();
                if (mmio) {
                    queued.pop_front();
                    drop(seq);
                } else if (buffer.size() < sbSize) {
                    queued.pop_front();
                    buffer.push_back(seq);
                }
            } else if (op == 2 && !buffer.empty()) {
                drop(buffer.front());
                buffer.pop_front();
            }
            ASSERT_LE(ring.size(), ring.capacity());
            // A load anywhere in the window looks up every slot.
            uint64_t back = rng.below(sqSize + 1);
            uint64_t load = nextSeq > back ? nextSeq - back : 1;
            for (Addr slot = 0x80000000; slot < 0x80000020; slot += 8) {
                uint64_t best = 0;
                for (uint64_t s : ref[slot])
                    if (s < load && s > best)
                        best = s;
                ASSERT_EQ(ring.youngestBefore(slot, load), best)
                    << "seed " << seed << " step " << step;
            }
        }
    }
}

} // namespace
