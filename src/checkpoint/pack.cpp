#include "checkpoint/pack.h"

#include <cstring>

#include "checkpoint/checkpoint.h"

namespace minjie::checkpoint {

namespace {

void
put64(std::vector<uint8_t> &v, uint64_t x)
{
    size_t off = v.size();
    v.resize(off + 8);
    std::memcpy(v.data() + off, &x, 8);
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
    put64(out, pack::MAGIC);
    put64(out, pack::VERSION);
    put64(out, n);
    put64(out, weightDen_);
    put64(out, poolOff);
    put64(out, order.size());
    for (size_t i = 0; i < n; ++i) {
        put64(out, table_[i].instCount);
        put64(out, table_[i].weightNum);
        put64(out, archOff[i]);
        put64(out, entryOff[i]);
        put64(out, table_[i].pages.size());
    }
    for (const auto &e : table_) {
        out.insert(out.end(), e.arch.begin(), e.arch.end());
        for (const auto &[base, idx] : e.pages) {
            put64(out, base);
            put64(out, renum[idx]);
        }
    }
    out.resize(poolOff, 0);
    for (uint64_t idx : order)
        out.insert(out.end(), poolPage(idx), poolPage(idx) + PAGE);
    return out;
}

} // namespace minjie::checkpoint
