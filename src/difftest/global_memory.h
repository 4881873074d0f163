/**
 * @file
 * The Global Memory of the multi-core diff-rule (paper Section
 * III-B2b): records every store that leaves any core's store queue
 * into the cache hierarchy. When a single-core REF loads a value that
 * disagrees with the DUT, DiffTest consults the Global Memory to decide
 * whether the DUT value was legally produced by another hardware
 * thread; if so, the REF's local memory and destination register are
 * updated instead of flagging a bug.
 */

#ifndef MINJIE_DIFFTEST_GLOBAL_MEMORY_H
#define MINJIE_DIFFTEST_GLOBAL_MEMORY_H

#include <deque>
#include <unordered_map>

#include "difftest/probes.h"

namespace minjie::difftest {

class GlobalMemory
{
  public:
    /** Record a store that entered the cache hierarchy. A bounded
     *  per-slot history is kept because the checking side observes
     *  loads at commit, i.e. after the producing value may have been
     *  overwritten by younger stores. */
    void
    onStore(const StoreProbe &probe)
    {
        ++stores_;
        Addr base = probe.paddr & ~7ULL;
        uint64_t &slot = mem_[base];
        unsigned shift = static_cast<unsigned>(probe.paddr & 7) * 8;
        uint64_t mask = probe.size == 8
            ? ~0ULL
            : (((1ULL << (probe.size * 8)) - 1) << shift);
        slot = (slot & ~mask) | ((probe.data << shift) & mask);
        known_[base] |= mask;
        auto &h = history_[base];
        h.push_back(slot);
        if (h.size() > HISTORY_DEPTH)
            h.pop_front();
    }

    /**
     * Could a load of @p size at @p paddr legally observe @p value?
     * True when every byte of the value matches a recorded store.
     */
    bool
    couldHaveValue(Addr paddr, unsigned size, uint64_t value) const
    {
        Addr base = paddr & ~7ULL;
        auto it = mem_.find(base);
        if (it == mem_.end())
            return false;
        auto kn = known_.find(base);
        unsigned shift = static_cast<unsigned>(paddr & 7) * 8;
        uint64_t mask = size == 8 ? ~0ULL
                                  : (((1ULL << (size * 8)) - 1) << shift);
        if ((kn->second & mask) != mask)
            return false; // some byte never written by any thread
        if (((it->second ^ (value << shift)) & mask) == 0)
            return true;
        // Younger stores may already have overwritten the value this
        // load legally observed; search the recent history.
        auto ht = history_.find(base);
        if (ht != history_.end()) {
            for (uint64_t old : ht->second)
                if (((old ^ (value << shift)) & mask) == 0)
                    return true;
        }
        return false;
    }

    uint64_t storesRecorded() const { return stores_; }

  private:
    // Bounded by the maximum stores in flight across all cores (ROB +
    // fetch buffers); 2048 covers two 256-entry windows of pure stores.
    static constexpr size_t HISTORY_DEPTH = 2048;
    std::unordered_map<Addr, uint64_t> mem_;   ///< 8B slot contents
    std::unordered_map<Addr, uint64_t> known_; ///< written-byte masks
    std::unordered_map<Addr, std::deque<uint64_t>> history_;
    uint64_t stores_ = 0;
};

} // namespace minjie::difftest

#endif // MINJIE_DIFFTEST_GLOBAL_MEMORY_H
