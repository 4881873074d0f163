#include "checkpoint/pack.h"

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

/** FNV-1a over one page, folded 8 bytes at a time. */
uint64_t
hashPage(const uint8_t *page)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < mem::PhysMem::PAGE_SIZE; i += 8) {
        uint64_t w;
        std::memcpy(&w, page + i, 8);
        h = (h ^ w) * 0x100000001b3ULL;
    }
    return h;
}

} // namespace

uint64_t
PackWriter::poolIndexFor(const uint8_t *page)
{
    ++hashed_;
    if (pageIsZero(page))
        return ZERO;
    auto &bucket = hashToIdx_[hashPage(page)];
    for (uint64_t idx : bucket) {
        if (std::memcmp(poolPage(idx), page, PAGE) == 0)
            return idx;
    }
    uint64_t idx = poolPages_++;
    if (idx % CHUNK_PAGES == 0)
        chunks_.push_back(
            std::make_unique_for_overwrite<uint8_t[]>(CHUNK_PAGES * PAGE));
    std::memcpy(chunks_.back().get() + idx % CHUNK_PAGES * PAGE, page,
                PAGE);
    bucket.push_back(idx);
    return idx;
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
