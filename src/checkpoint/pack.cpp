#include "checkpoint/pack.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "checkpoint/checkpoint.h"
#include "common/bytes.h"

namespace minjie::checkpoint {

namespace {

/** True when the 4 KiB page at @p data is all zeros (8 bytes at a
 *  time; pages are 8-aligned). */
bool
pageIsZero(const uint8_t *data)
{
    uint64_t acc = 0;
    for (unsigned i = 0; i < mem::PhysMem::PAGE_SIZE; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, 8);
        acc |= w;
        if (acc)
            return false;
    }
    return true;
}

/** FNV-1a-style hash of one page in four independent lanes (words
 *  i, i+1, i+2, i+3 of each 32 bytes), so the four multiply chains
 *  overlap instead of forming one serial chain. */
uint64_t
hashPage(const uint8_t *page)
{
    constexpr uint64_t prime = 0x100000001b3ULL;
    uint64_t h[4] = {0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL,
                     0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL};
    for (size_t i = 0; i < mem::PhysMem::PAGE_SIZE; i += 32) {
        for (unsigned l = 0; l < 4; ++l) {
            uint64_t w;
            std::memcpy(&w, page + i + 8 * l, 8);
            h[l] = (h[l] ^ w) * prime;
        }
    }
    // Fold the lanes, then MurmurHash3's fmix64: the index uses the
    // low bits, which the multiply chains alone mix poorly.
    uint64_t x = h[0] ^ std::rotl(h[1], 16) ^ std::rotl(h[2], 32) ^
                 std::rotl(h[3], 48);
    x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
    x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
}

} // namespace

uint64_t
PackWriter::poolIndexFor(const uint8_t *page)
{
    ++hashed_;
    if (pageIsZero(page))
        return ZERO;
    // Open addressing, linear probing; the hash only picks where to
    // look, and a pool page is reused only when its bytes match.
    if (2 * (poolPages_ + 1) > index_.size())
        growIndex();
    const uint64_t hash = hashPage(page);
    const size_t mask = index_.size() - 1;
    size_t b = hash & mask;
    for (; index_[b].idx != ZERO; b = (b + 1) & mask) {
        if (index_[b].hash == hash &&
            std::memcmp(poolPage(index_[b].idx), page, PAGE) == 0)
            return index_[b].idx;
    }
    uint64_t idx = poolPages_++;
    if (idx % CHUNK_PAGES == 0)
        chunks_.push_back(
            std::make_unique_for_overwrite<uint8_t[]>(CHUNK_PAGES * PAGE));
    std::memcpy(chunks_.back().get() + idx % CHUNK_PAGES * PAGE, page,
                PAGE);
    index_[b] = {hash, idx};
    return idx;
}

void
PackWriter::growIndex()
{
    std::vector<IndexEnt> old(std::max<size_t>(64, 2 * index_.size()),
                              IndexEnt{0, ZERO});
    old.swap(index_);
    const size_t mask = index_.size() - 1;
    for (const IndexEnt &e : old) {
        if (e.idx == ZERO)
            continue;
        size_t b = e.hash & mask;
        while (index_[b].idx != ZERO)
            b = (b + 1) & mask;
        index_[b] = e;
    }
}

void
PackWriter::snapshot(size_t slot, const iss::ArchState &state,
                     mem::PhysMem &mem, uint64_t instCount,
                     uint64_t weightNum)
{
    Entry &e = table_.at(slot);
    e.instCount = instCount;
    e.weightNum = weightNum;
    e.arch.clear();
    serializeArch(e.arch, state);

    if (mem.epoch() == liveEpoch_) {
        // Same memory, no clear since the last snapshot: pages are
        // never freed, so the live set is the old one plus the dirty
        // pages, merged in address order.
        std::vector<std::pair<uint64_t, uint64_t>> next;
        next.reserve(live_.size() + mem.dirtyPages());
        size_t i = 0;
        mem.forEachDirtyPage([&](Addr base, const uint8_t *data) {
            while (i < live_.size() && live_[i].first < base)
                next.push_back(live_[i++]);
            if (i < live_.size() && live_[i].first == base)
                ++i;
            next.emplace_back(base, poolIndexFor(data));
        });
        next.insert(next.end(), live_.begin() + static_cast<ptrdiff_t>(i),
                    live_.end());
        live_.swap(next);
    } else {
        live_.clear();
        mem.forEachPage([&](Addr base, const uint8_t *data) {
            live_.emplace_back(base, poolIndexFor(data));
        });
    }
    mem.clearDirty();
    liveEpoch_ = mem.epoch();

    e.pages.clear();
    for (const auto &page : live_)
        if (page.second != ZERO)
            e.pages.push_back(page);
    totalRefs_ += e.pages.size();
}

std::vector<uint8_t>
PackWriter::bytes() const
{
    // Pool order: first reference in table order.
    constexpr uint64_t UNSET = ~0ULL;
    std::vector<uint64_t> renum(poolPages(), UNSET);
    std::vector<uint64_t> order;
    order.reserve(poolPages());
    for (const auto &e : table_)
        for (const auto &[base, idx] : e.pages)
            if (renum[idx] == UNSET) {
                renum[idx] = order.size();
                order.push_back(idx);
            }

    // Offsets: header, table, then per-checkpoint arch blob followed
    // by its page-entry array, then the page pool aligned to 4096.
    size_t n = table_.size();
    uint64_t cursor = (pack::HEADER_U64 + pack::TABLE_U64 * n) * 8;
    std::vector<uint64_t> archOff(n), entryOff(n);
    for (size_t i = 0; i < n; ++i) {
        archOff[i] = cursor;
        cursor += table_[i].arch.size();
        entryOff[i] = cursor;
        cursor += table_[i].pages.size() * 16;
    }
    uint64_t poolOff = (cursor + PAGE - 1) / PAGE * PAGE;

    std::vector<uint8_t> out;
    out.reserve(poolOff + order.size() * PAGE);
    ByteWriter w(out);
    w.u64(pack::MAGIC);
    w.u64(pack::VERSION);
    w.u64(n);
    w.u64(weightDen_);
    w.u64(poolOff);
    w.u64(order.size());
    for (size_t i = 0; i < n; ++i) {
        w.u64(table_[i].instCount);
        w.u64(table_[i].weightNum);
        w.u64(archOff[i]);
        w.u64(entryOff[i]);
        w.u64(table_[i].pages.size());
    }
    for (const auto &e : table_) {
        w.bytes(e.arch.data(), e.arch.size());
        for (const auto &[base, idx] : e.pages) {
            w.u64(base);
            w.u64(renum[idx]);
        }
    }
    out.resize(poolOff, 0);
    for (uint64_t idx : order)
        w.bytes(poolPage(idx), PAGE);
    return out;
}

} // namespace minjie::checkpoint
