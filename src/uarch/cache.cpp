#include "uarch/cache.h"

#include "common/bitutil.h"
#include "common/log.h"

namespace minjie::uarch {

const char *
txnKindName(TxnKind kind)
{
    switch (kind) {
      case TxnKind::AcquireShared: return "AcquireShared";
      case TxnKind::AcquireExclusive: return "AcquireExclusive";
      case TxnKind::GrantShared: return "GrantShared";
      case TxnKind::GrantExclusive: return "GrantExclusive";
      case TxnKind::ProbeShared: return "ProbeShared";
      case TxnKind::ProbeInvalid: return "ProbeInvalid";
      case TxnKind::Release: return "Release";
      case TxnKind::MemRead: return "MemRead";
      case TxnKind::MemWrite: return "MemWrite";
      case TxnKind::Evict: return "Evict";
    }
    return "?";
}

Cache::Cache(std::string name, const CacheCfg &cfg, Cache *parent,
             DramModel *dram)
    : name_(std::move(name)), cfg_(cfg), parent_(parent), dram_(dram)
{
    if (!isPow2(cfg.lineBytes) || cfg.ways == 0)
        fatal("cache %s: bad geometry", name_.c_str());
    sets_ = static_cast<unsigned>(cfg.sizeBytes /
                                  (cfg.lineBytes * cfg.ways));
    if (sets_ == 0)
        sets_ = 1;
    if (cfg.ways > Line::MAX_RANKS)
        fatal("cache %s: more than %u ways", name_.c_str(), Line::MAX_RANKS);
    setMask_ = isPow2(sets_) ? sets_ - 1 : 0;
    lineShift_ = log2i(cfg.lineBytes);
    lineMask_ = cfg.lineBytes - 1;
    lines_ = ZeroedArray<Line>(static_cast<size_t>(sets_) * cfg.ways);
    mshrs_.assign(cfg.mshrs, {});
}

Cache::Line *
Cache::setOf(Addr line)
{
    uint64_t n = line >> lineShift_;
    uint64_t set = setMask_ ? n & setMask_ : n % sets_;
    return &lines_[set * cfg_.ways];
}

Cache::Line *
Cache::find(Line *set, Addr line) const
{
    uint64_t tag = tagOf(line);
    for (unsigned w = 0; w < cfg_.ways; ++w)
        if ((set[w].word & ~Line::META) == tag && set[w].valid())
            return &set[w];
    return nullptr;
}

void
Cache::touch(Line *set, Line *l)
{
    unsigned r = l->rank();
    if (r == 0)
        return; // already the most recent: nothing to write
    for (unsigned w = 0; w < cfg_.ways; ++w)
        if (set[w].valid() && set[w].rank() < r)
            set[w].word += 1ULL << Line::RANK_SHIFT;
    l->setRank(0);
}

void
Cache::invalidate(Line *set, Line *l)
{
    unsigned r = l->rank();
    l->word = 0;
    for (unsigned w = 0; w < cfg_.ways; ++w)
        if (set[w].valid() && set[w].rank() > r)
            set[w].word -= 1ULL << Line::RANK_SHIFT;
}

bool
Cache::holds(Addr line) const
{
    return findLine(lineAddr(line)) != nullptr;
}

CohState
Cache::state(Addr line) const
{
    const Line *l = findLine(lineAddr(line));
    return l ? l->st() : CohState::I;
}

void
Cache::flushAll()
{
    // Reads of never-written pages map the shared zero page; only
    // lines that hold something are written.
    for (auto &l : lines_)
        if (l.word)
            l.word = 0;
    for (auto &m : mshrs_)
        m.line = ~0ULL;
}

void
Cache::setTxnLog(TxnLog log)
{
    txnLogs_.clear();
    if (log)
        txnLogs_.push_back(log);
    for (auto *c : children_)
        c->setTxnLog(log);
}

void
Cache::addTxnLog(TxnLog log)
{
    if (log)
        txnLogs_.push_back(log);
    for (auto *c : children_)
        c->addTxnLog(log);
}

unsigned
Cache::mshrDelay(Addr line, Cycle now, unsigned missLatency)
{
    // Merge with an in-flight miss to the same line.
    for (auto &m : mshrs_) {
        if (m.line == line && m.readyAt > now)
            return static_cast<unsigned>(m.readyAt - now);
    }
    // Claim a free slot, or stall until the earliest one retires.
    Mshr *victim = &mshrs_[0];
    for (auto &m : mshrs_) {
        if (m.readyAt <= now) {
            m.line = line;
            m.readyAt = now + missLatency;
            return missLatency;
        }
        if (m.readyAt < victim->readyAt)
            victim = &m;
    }
    ++stats_.mshrStalls;
    unsigned stall = static_cast<unsigned>(victim->readyAt - now);
    victim->line = line;
    victim->readyAt = victim->readyAt + missLatency;
    return stall + missLatency;
}

unsigned
Cache::probeInvalidate(Addr line, Cycle now)
{
    unsigned lat = 0;
    for (auto *c : children_)
        lat += c->probeInvalidate(line, now);
    Line *set = setOf(line);
    Line *l = find(set, line);
    if (l) {
        ++stats_.probesReceived;
        if (l->st() == CohState::M) {
            ++stats_.writebacks;
            // Dirty data leaves with (before) the invalidation ack.
            log(TxnKind::Release, line, now);
            lat += 4; // dirty data travels to the prober
        }
        log(TxnKind::ProbeInvalid, line, now);
        invalidate(set, l);
        lat += 2;
    }
    return lat;
}

unsigned
Cache::probeShared(Addr line, Cycle now)
{
    unsigned lat = 0;
    for (auto *c : children_)
        lat += c->probeShared(line, now);
    Line *l = find(setOf(line), line);
    if (l && (l->st() == CohState::M || l->st() == CohState::E)) {
        ++stats_.probesReceived;
        if (l->st() == CohState::M) {
            ++stats_.writebacks;
            log(TxnKind::Release, line, now);
            lat += 4;
        }
        log(TxnKind::ProbeShared, line, now);
        l->setSt(CohState::S);
        lat += 2;
    }
    return lat;
}

unsigned
Cache::install(Addr line, CohState st, Cycle now)
{
    // The first invalid way, else the least recently used line (the
    // highest rank of a full set).
    Line *set = setOf(line);
    Line *victim = nullptr;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Line &l = set[w];
        if (!l.valid()) {
            victim = &l;
            break;
        }
        if (!victim || l.rank() > victim->rank())
            victim = &l;
    }
    unsigned lat = 0;
    if (victim->valid()) {
        Addr old = lineOf(*victim);
        if (victim->st() == CohState::M) {
            ++stats_.writebacks;
            log(TxnKind::Release, old, now);
        }
        log(TxnKind::Evict, old, now);
        if (cfg_.inclusive) {
            // Inclusive victims must leave the children too.
            for (auto *c : children_)
                lat += c->probeInvalidate(old, now);
        }
        victim->word = 0; // the highest rank: no gap to close
    }
    for (unsigned w = 0; w < cfg_.ways; ++w)
        if (set[w].valid())
            set[w].word += 1ULL << Line::RANK_SHIFT;
    victim->word = tagOf(line) | static_cast<uint64_t>(st);
    return lat;
}

unsigned
Cache::acquire(Cache *requester, Addr line, bool exclusive,
               bool &grantExcl, Cycle now)
{
    log(exclusive ? TxnKind::AcquireExclusive : TxnKind::AcquireShared,
        line, now);
    unsigned lat = cfg_.hitLatency;

    // Probe the requester's peers.
    bool peerHeld = false;
    for (auto *c : children_) {
        if (c == requester)
            continue;
        if (c->holds(line) || [&] {
                // Children of children may hold it even if the direct
                // child does not track it (non-inclusive levels).
                for (auto *gc : c->children_)
                    if (gc->holds(line))
                        return true;
                return false;
            }()) {
            peerHeld = true;
            lat += exclusive ? c->probeInvalidate(line, now)
                             : c->probeShared(line, now);
        }
    }

    Line *set = setOf(line);
    Line *l = find(set, line);
    if (l) {
        ++stats_.hits;
        touch(set, l);
        if (exclusive && l->st() == CohState::S) {
            // Upgrade requires permission from our parent.
            ++stats_.upgrades;
            if (parent_) {
                bool excl = false;
                lat += parent_->acquire(this, line, true, excl, now);
            } else if (dram_) {
                lat += 0; // top level owns the directory
            }
            l->setSt(CohState::M);
        }
        grantExcl = exclusive || !peerHeld;
        log(grantExcl ? TxnKind::GrantExclusive : TxnKind::GrantShared,
            line, now);
        return lat;
    }

    // Miss here: go toward memory.
    ++stats_.misses;
    unsigned missLat;
    bool excl = false;
    if (parent_) {
        missLat = parent_->acquire(this, line, exclusive, excl, now + lat);
    } else if (dram_) {
        missLat = dram_->access(line, now + lat, false);
        log(TxnKind::MemRead, line, now);
        excl = true;
    } else {
        missLat = 0;
        excl = true;
    }
    missLat = mshrDelay(line, now, missLat);
    lat += missLat;
    lat += install(line, exclusive ? CohState::M
                                   : (excl && !peerHeld ? CohState::E
                                                        : CohState::S),
                   now);
    grantExcl = exclusive || (excl && !peerHeld);
    log(grantExcl ? TxnKind::GrantExclusive : TxnKind::GrantShared, line,
        now);
    return lat;
}

unsigned
Cache::access(Addr paddr, bool write, Cycle now)
{
    if ((paddr >> lineShift_) >> 56)
        fatal("cache %s: address 0x%llx beyond the tag range",
              name_.c_str(), static_cast<unsigned long long>(paddr));
    Addr line = lineAddr(paddr);
    Line *set = setOf(line);
    Line *l = find(set, line);

    if (l) {
        ++stats_.hits;
        touch(set, l);
        unsigned lat = cfg_.hitLatency;
        if (write) {
            if (l->st() == CohState::S) {
                ++stats_.upgrades;
                log(TxnKind::AcquireExclusive, line, now);
                if (parent_) {
                    bool excl = false;
                    lat += parent_->acquire(this, line, true, excl, now);
                }
                l->setSt(CohState::M);
                log(TxnKind::GrantExclusive, line, now + lat);
            } else if (l->st() == CohState::E) {
                l->setSt(CohState::M);
            }
        }
        return lat;
    }

    ++stats_.misses;
    log(write ? TxnKind::AcquireExclusive : TxnKind::AcquireShared, line,
        now);
    unsigned lat = cfg_.hitLatency;
    unsigned missLat;
    bool excl = false;
    if (parent_) {
        missLat = parent_->acquire(this, line, write, excl, now + lat);
    } else if (dram_) {
        missLat = dram_->access(line, now + lat, write);
        log(write ? TxnKind::MemWrite : TxnKind::MemRead, line, now);
        excl = true;
    } else {
        missLat = 0;
        excl = true;
    }
    missLat = mshrDelay(line, now, missLat);
    lat += missLat;
    lat += install(line, write ? CohState::M
                               : (excl ? CohState::E : CohState::S),
                   now);
    log(write || excl ? TxnKind::GrantExclusive : TxnKind::GrantShared,
        line, now + lat);
    return lat;
}

} // namespace minjie::uarch
