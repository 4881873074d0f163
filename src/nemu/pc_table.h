/**
 * @file
 * NEMU's pc table: the uop cache's pc index and the BBV profiler's
 * block slots, both a map from guest pc to a 32-bit index.
 */

#ifndef MINJIE_NEMU_PC_TABLE_H
#define MINJIE_NEMU_PC_TABLE_H

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace minjie::nemu {

/**
 * A flat open-addressing map from pc to int32_t: one buffer of slots,
 * probed linearly from a Fibonacci hash of the pc, doubled when an
 * insert would pass half load. An insert allocates nothing unless it
 * doubles the table. Entries are never removed one by one, only all
 * at once: every slot carries the generation it was filled in, and
 * clear() starts a new one, so a flush writes no slot however large
 * the table has grown.
 */
class PcTable
{
  public:
    /** Slots of a new table (a power of two). */
    static constexpr size_t INITIAL_SLOTS = 512;

    /** The value stored for @p pc, or nullptr. */
    const int32_t *
    find(Addr pc) const
    {
        const Slot &s = slots_[probe(pc)];
        return s.gen == gen_ ? &s.value : nullptr;
    }

    /**
     * Store @p pc -> @p value unless @p pc is already present, which
     * keeps its value. @return the stored value, and whether it was
     * inserted.
     */
    std::pair<int32_t, bool>
    emplace(Addr pc, int32_t value)
    {
        size_t i = probe(pc);
        if (slots_[i].gen == gen_)
            return {slots_[i].value, false};
        if (2 * (size_ + 1) > slots_.size()) {
            grow();
            i = probe(pc);
        }
        slots_[i] = {pc, value, gen_};
        ++size_;
        return {value, true};
    }

    /** Drop every entry; the capacity stays. */
    void
    clear()
    {
        size_ = 0;
        if (++gen_ == 0) { // wrapped: stale stamps would read as live
            for (Slot &s : slots_)
                s.gen = 0;
            gen_ = 1;
        }
    }

    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }

  private:
    struct Slot
    {
        Addr pc = 0;
        int32_t value = 0;
        uint32_t gen = 0; ///< live when equal to gen_
    };

    /** The slot holding @p pc, or the free slot it would go in. */
    size_t
    probe(Addr pc) const
    {
        const size_t mask = slots_.size() - 1;
        size_t i = static_cast<size_t>((pc * 0x9e3779b97f4a7c15ULL) >> shift_);
        while (slots_[i].gen == gen_ && slots_[i].pc != pc)
            i = (i + 1) & mask;
        return i;
    }

    /** Double the slots and re-insert the live entries. */
    void
    grow()
    {
        const std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
        --shift_;
        const uint32_t live = gen_;
        gen_ = 1;
        for (const Slot &s : old)
            if (s.gen == live)
                slots_[probe(s.pc)] = {s.pc, s.value, gen_};
    }

    std::vector<Slot> slots_ = std::vector<Slot>(INITIAL_SLOTS);
    /** 64 - log2(capacity): the hash's top bits index a slot. */
    unsigned shift_ = 64 - std::countr_zero(INITIAL_SLOTS);
    uint32_t gen_ = 1;
    size_t size_ = 0;
};

} // namespace minjie::nemu

#endif // MINJIE_NEMU_PC_TABLE_H
