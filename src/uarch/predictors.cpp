#include "uarch/predictors.h"

#include "common/bitutil.h"

namespace minjie::uarch {

namespace {

/** Fold @p hist's low @p len bits down to @p bits bits by xor. */
uint32_t
fold(uint64_t hist, unsigned len, unsigned bits)
{
    uint64_t h = len >= 64 ? hist : (hist & ((1ULL << len) - 1));
    uint32_t out = 0;
    while (h) {
        out ^= static_cast<uint32_t>(h) & ((1u << bits) - 1);
        h >>= bits;
    }
    return out;
}

} // namespace

constexpr unsigned Tage::HIST_LEN[Tage::N_TABLES];

Tage::Tage(unsigned totalEntries, uint64_t seed)
    : entriesPerTable_(totalEntries / N_TABLES), rngState_(seed | 1)
{
    indexBits_ = log2i(entriesPerTable_);
    for (auto &t : tables_)
        t = ZeroedArray<TaggedEntry>(entriesPerTable_);
    base_ = ZeroedArray<int8_t>(8192);
    for (auto &t : sc_)
        t = ZeroedArray<int8_t>(SC_ENTRIES);
}

unsigned
Tage::tableIndex(unsigned t, Addr pc) const
{
    uint32_t h = fold(ghr_, HIST_LEN[t], indexBits_);
    return (static_cast<uint32_t>(pc >> 1) ^ h ^
            (static_cast<uint32_t>(pc >> (indexBits_ + 1)))) &
           (entriesPerTable_ - 1);
}

uint16_t
Tage::tableTag(unsigned t, Addr pc) const
{
    uint32_t h = fold(ghr_, HIST_LEN[t], TAG_BITS);
    uint32_t h2 = fold(ghr_, HIST_LEN[t], TAG_BITS - 1) << 1;
    return static_cast<uint16_t>(
        (static_cast<uint32_t>(pc >> 1) ^ h ^ h2) & ((1u << TAG_BITS) - 1));
}

CondPred
Tage::predict(Addr pc) const
{
    ++lookups_;
    CondPred pred;

    // Record every table coordinate under the current history so the
    // commit-time update operates on exactly these entries.
    pred.baseIdx = static_cast<uint32_t>((pc >> 1) & (base_.size() - 1));
    for (unsigned t = 0; t < N_TABLES; ++t) {
        pred.idx[t] = tableIndex(t, pc);
        pred.tag[t] = tableTag(t, pc);
    }
    for (unsigned s = 0; s < SC_TABLES; ++s)
        pred.scIdx[s] = (static_cast<uint32_t>(pc >> 1) ^
                         fold(ghr_, s ? 16 : 4, 10)) &
                        (SC_ENTRIES - 1);

    // Base bimodal prediction.
    int8_t baseCtr = base_[pred.baseIdx];
    pred.taken = baseCtr >= 0;
    pred.confident = baseCtr <= -2 || baseCtr >= 1;
    pred.provider = -1;

    // Longest-history tagged hit wins.
    for (int t = N_TABLES - 1; t >= 0; --t) {
        const auto &e = tables_[t][pred.idx[t]];
        if (e.tag == pred.tag[t]) {
            pred.taken = e.ctr >= 0;
            pred.confident = e.ctr <= -3 || e.ctr >= 2;
            pred.provider = t;
            break;
        }
    }

    // Statistical corrector: sum per-history-bias counters; a strong
    // disagreement overrides the TAGE output.
    int sum = 0;
    for (unsigned s = 0; s < SC_TABLES; ++s)
        sum += sc_[s][pred.scIdx[s]];
    bool scPred = sum >= 0;
    if (scPred != pred.taken) {
        if (sum >= scThreshold_ || sum <= -scThreshold_) {
            pred.taken = scPred;
            pred.confident = false; // corrector overrides are low-trust
        } else {
            pred.confident = false;
        }
    }
    return pred;
}

void
Tage::update(const CondPred &pred, bool taken)
{
    if (pred.taken != taken)
        ++mispredicts_;

    // Base table always trains.
    int8_t &b = base_[pred.baseIdx];
    if (taken)
        b = static_cast<int8_t>(b < 1 ? b + 1 : b);
    else
        b = static_cast<int8_t>(b > -2 ? b - 1 : b);

    // Provider trains; on mispredict allocate in a longer table.
    int provider = -1;
    for (int t = N_TABLES - 1; t >= 0; --t) {
        auto &e = tables_[t][pred.idx[t]];
        if (e.tag == pred.tag[t]) {
            provider = t;
            if (taken)
                e.ctr = static_cast<int8_t>(e.ctr < 3 ? e.ctr + 1 : e.ctr);
            else
                e.ctr = static_cast<int8_t>(e.ctr > -4 ? e.ctr - 1
                                                       : e.ctr);
            bool correct = (e.ctr >= 0) == taken;
            if (correct && e.useful < 3)
                ++e.useful;
            else if (!correct && e.useful > 0)
                --e.useful;
            break;
        }
    }

    if (pred.taken != taken && provider < static_cast<int>(N_TABLES) - 1) {
        // Allocate one entry in a randomly chosen longer table whose
        // victim is not useful.
        rngState_ = rngState_ * 6364136223846793005ULL + 1;
        unsigned start =
            static_cast<unsigned>(provider + 1) +
            static_cast<unsigned>((rngState_ >> 33) %
                                  (N_TABLES - provider - 1));
        for (unsigned t = start; t < N_TABLES; ++t) {
            auto &e = tables_[t][pred.idx[t]];
            if (e.useful == 0) {
                e.tag = pred.tag[t];
                e.ctr = taken ? 0 : -1;
                break;
            }
            if (e.useful > 0)
                --e.useful; // age the victim
        }
    }

    // Statistical corrector trains toward the outcome.
    for (unsigned s = 0; s < SC_TABLES; ++s) {
        int8_t &c = sc_[s][pred.scIdx[s]];
        if (taken)
            c = static_cast<int8_t>(c < 31 ? c + 1 : c);
        else
            c = static_cast<int8_t>(c > -32 ? c - 1 : c);
    }
}

void
Tage::pushHistory(bool taken)
{
    ghr_ = (ghr_ << 1) | (taken ? 1 : 0);
}

constexpr unsigned Ittage::HIST_LEN[2];

Ittage::Ittage(unsigned entries) : entries_(entries / 2)
{
    for (auto &t : tables_)
        t = ZeroedArray<Entry>(entries_);
    base_ = ZeroedArray<Addr>(entries_);
}

unsigned
Ittage::idx(unsigned t, Addr pc) const
{
    return (static_cast<uint32_t>(pc >> 1) ^
            fold(pathHist_, HIST_LEN[t], log2i(entries_))) %
           entries_;
}

uint16_t
Ittage::tag(unsigned t, Addr pc) const
{
    return static_cast<uint16_t>(
        (static_cast<uint32_t>(pc >> 1) ^ fold(pathHist_, HIST_LEN[t], 8)) &
        0x1ff);
}

IndirectPred
Ittage::predict(Addr pc) const
{
    IndirectPred pred;
    pred.baseIdx = static_cast<uint32_t>((pc >> 1) % entries_);
    for (unsigned t = 0; t < 2; ++t) {
        pred.idx[t] = idx(t, pc);
        pred.tag[t] = tag(t, pc);
    }
    pred.target = base_[pred.baseIdx];
    for (int t = 1; t >= 0; --t) {
        const auto &e = tables_[t][pred.idx[t]];
        if (e.tag == pred.tag[t] && e.target) {
            pred.target = e.target;
            break;
        }
    }
    return pred;
}

void
Ittage::update(const IndirectPred &pred, Addr target)
{
    base_[pred.baseIdx] = target;
    bool hit = false;
    for (int t = 1; t >= 0; --t) {
        auto &e = tables_[t][pred.idx[t]];
        if (e.tag == pred.tag[t]) {
            hit = true;
            if (e.target == target) {
                if (e.conf < 3)
                    ++e.conf;
            } else if (e.conf > 0) {
                --e.conf;
            } else {
                e.target = target;
            }
            break;
        }
    }
    if (!hit) {
        // Allocate in table 0 first, then 1.
        for (unsigned t = 0; t < 2; ++t) {
            auto &e = tables_[t][pred.idx[t]];
            if (e.conf == 0) {
                e.tag = pred.tag[t];
                e.target = target;
                e.conf = 1;
                break;
            }
            --e.conf;
        }
    }
}

void
Ittage::pushHistory(Addr target)
{
    pathHist_ = (pathHist_ << 2) ^ (target >> 1);
}

Btb::Btb(unsigned entries, unsigned ways)
    : sets_(entries / ways), ways_(ways), table_(entries)
{
}

bool
Btb::predict(Addr pc, Addr &target) const
{
    unsigned set = static_cast<unsigned>((pc >> 1) % sets_);
    for (unsigned w = 0; w < ways_; ++w) {
        const auto &e = table_[set * ways_ + w];
        if (e.valid && e.pc == pc) {
            target = e.target;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

void
Btb::update(Addr pc, Addr target)
{
    unsigned set = static_cast<unsigned>((pc >> 1) % sets_);
    unsigned victim = 0;
    uint64_t oldest = ~0ULL;
    for (unsigned w = 0; w < ways_; ++w) {
        auto &e = table_[set * ways_ + w];
        if (e.valid && e.pc == pc) {
            e.target = target;
            e.lru = ++tick_;
            return;
        }
        if (!e.valid) {
            victim = w;
            oldest = 0;
        } else if (e.lru < oldest) {
            victim = w;
            oldest = e.lru;
        }
    }
    auto &e = table_[set * ways_ + victim];
    e.valid = true;
    e.pc = pc;
    e.target = target;
    e.lru = ++tick_;
}

} // namespace minjie::uarch
