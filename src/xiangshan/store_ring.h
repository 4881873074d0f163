/**
 * @file
 * The core's in-flight store list for store-to-load forwarding.
 */

#ifndef MINJIE_XIANGSHAN_STORE_RING_H
#define MINJIE_XIANGSHAN_STORE_RING_H

#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace minjie::xs {

/**
 * In-flight stores, from dispatch until they drain (an MMIO store:
 * until it commits), in program order: a fixed-capacity ring of
 * (8-byte slot, seq). Stores drain in program order, so a drained
 * store is the oldest live entry; a committed MMIO store leaves a
 * tombstone (seq 0) until the head passes it. At most sqSize +
 * storeBufferSize entries are live, and push() squeezes the
 * tombstones out of a full ring.
 */
class StoreRing
{
  public:
    /** Room for @p cap live stores (rounded up to a power of two). */
    explicit StoreRing(unsigned cap)
    {
        unsigned c = 1;
        while (c < cap)
            c <<= 1;
        buf_.assign(c, {0, 0});
        mask_ = c - 1;
    }

    /** Append the youngest store, to 8-byte slot @p slot. */
    void
    push(Addr slot, uint64_t seq)
    {
        if (count_ == buf_.size()) {
            // Full of live stores and tombstones: squeeze the
            // tombstones out, keeping program order.
            uint32_t live = 0;
            for (uint32_t i = 0; i < count_; ++i) {
                Ent e = at(i);
                if (e.seq)
                    at(live++) = e;
            }
            if (live == count_)
                panic("store ring: more than %zu in-flight stores",
                      buf_.size());
            count_ = live;
        }
        at(count_++) = {slot, seq};
    }

    /** Drop @p seq: a drained store, or a committed MMIO store. */
    void
    retire(uint64_t seq)
    {
        for (uint32_t i = 0; i < count_; ++i) {
            if (at(i).seq == seq) {
                at(i).seq = 0;
                break;
            }
        }
        while (count_ && buf_[head_].seq == 0) {
            head_ = (head_ + 1) & mask_;
            --count_;
        }
    }

    /** The youngest store to @p slot older than @p seq, or 0. */
    uint64_t
    youngestBefore(Addr slot, uint64_t seq) const
    {
        for (uint32_t i = count_; i-- > 0;) {
            const Ent &e = buf_[(head_ + i) & mask_];
            if (e.slot == slot && e.seq && e.seq < seq)
                return e.seq;
        }
        return 0;
    }

    /** Entries held, tombstones included. */
    size_t size() const { return count_; }
    size_t capacity() const { return buf_.size(); }

  private:
    struct Ent
    {
        Addr slot;
        uint64_t seq;
    };

    Ent &at(uint32_t i) { return buf_[(head_ + i) & mask_]; }

    std::vector<Ent> buf_;
    uint32_t mask_ = 0, head_ = 0, count_ = 0;
};

} // namespace minjie::xs

#endif // MINJIE_XIANGSHAN_STORE_RING_H
