/**
 * @file
 * Timing model of a coherent multi-level cache hierarchy.
 *
 * Data lives in the functional PhysMem; these caches track tags, MESI
 * states, LRU and MSHR occupancy, and return access latencies. Parent
 * caches coordinate coherence with TileLink-flavoured transactions
 * (Acquire / Probe / Grant / Release / Evict) that are reported to an
 * optional transaction log — the paper's ArchDB records exactly these,
 * and the DiffTest permission scoreboard (Section III-B2b) checks them.
 */

#ifndef MINJIE_UARCH_CACHE_H
#define MINJIE_UARCH_CACHE_H

#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/zeroed_array.h"

namespace minjie::uarch {

/** Geometry and latency of one cache level. */
struct CacheCfg
{
    uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned hitLatency = 2;
    unsigned lineBytes = 64;
    bool inclusive = false; ///< back-invalidates children on eviction
    unsigned mshrs = 8;     ///< outstanding-miss capacity
};

/** MESI line states. */
enum class CohState : uint8_t { I, S, E, M };

/** Coherence/bus transaction kinds (TileLink-flavoured). */
enum class TxnKind : uint8_t {
    AcquireShared,    ///< child requests read permission
    AcquireExclusive, ///< child requests write permission
    GrantShared,
    GrantExclusive,
    ProbeShared,      ///< downgrade a peer to S
    ProbeInvalid,     ///< invalidate a peer
    Release,          ///< dirty writeback from child
    MemRead,
    MemWrite,
    Evict,            ///< a cache dropped its replacement victim
};

const char *txnKindName(TxnKind kind);

/** One observed transaction, for ArchDB and the permission scoreboard. */
struct Transaction
{
    TxnKind kind;
    Addr line;              ///< line-aligned address
    const void *cache;      ///< cache the transaction concerns
    const char *cacheName;
    Cycle at;
};

using TxnLog = std::function<void(const Transaction &)>;

/** DRAM timing: fixed AMAT (the paper's FPGA configs) or a DDR-like
 *  channel model with row-buffer hits (the RTL-simulation configs). */
struct DramCfg
{
    enum class Mode { FixedAmat, Ddr };
    Mode mode = Mode::FixedAmat;
    unsigned amatCycles = 90;   ///< FixedAmat: flat latency
    unsigned ddrBase = 170;     ///< Ddr: closed-row access latency
    unsigned ddrRowHit = 110;   ///< Ddr: open-row access latency
    unsigned burstCycles = 8;   ///< channel occupancy per access
    unsigned channels = 2;
};

class DramModel
{
  public:
    explicit DramModel(const DramCfg &cfg) : cfg_(cfg)
    {
        busy_.assign(cfg.channels, 0);
        openRow_.assign(cfg.channels, ~0ULL);
    }

    /** Latency of an access issued at @p now. */
    unsigned
    access(Addr addr, Cycle now, bool write)
    {
        ++accesses_;
        if (cfg_.mode == DramCfg::Mode::FixedAmat)
            return cfg_.amatCycles;
        unsigned ch = static_cast<unsigned>((addr >> 6) % cfg_.channels);
        Cycle start = now > busy_[ch] ? now : busy_[ch];
        uint64_t row = addr >> 13;
        unsigned lat = openRow_[ch] == row ? cfg_.ddrRowHit : cfg_.ddrBase;
        openRow_[ch] = row;
        busy_[ch] = start + cfg_.burstCycles;
        return static_cast<unsigned>(start - now) + lat;
    }

    uint64_t accesses() const { return accesses_; }

  private:
    DramCfg cfg_;
    std::vector<Cycle> busy_;
    std::vector<uint64_t> openRow_;
    uint64_t accesses_ = 0;
};

/** Per-cache statistics. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;
    uint64_t probesReceived = 0;
    uint64_t upgrades = 0;
    uint64_t mshrStalls = 0;
};

/**
 * One cache level. Parents own coherence among their children.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheCfg &cfg, Cache *parent,
          DramModel *dram);

    /** Register @p child for coherence probes. */
    void addChild(Cache *child) { children_.push_back(child); }

    /**
     * Access @p paddr at cycle @p now.
     * @param write  requires exclusive permission
     * @return latency in cycles until data is available
     */
    unsigned access(Addr paddr, bool write, Cycle now);

    /** Does this cache (not counting children) hold the line? */
    bool holds(Addr line) const;
    CohState state(Addr line) const;

    /** Invalidate everything (used by checkpoint restore). */
    void flushAll();

    const CacheStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }
    const CacheCfg &cfg() const { return cfg_; }

    /** Install a transaction observer on this level and below,
     *  replacing any previously installed observers. */
    void setTxnLog(TxnLog log);

    /** Add a transaction observer on this level and below, keeping the
     *  existing ones (DiffTest's scoreboard and the obs tracer can
     *  watch the same hierarchy). */
    void addTxnLog(TxnLog log);

  private:
    /**
     * One tag-array entry in 8 bytes: the line number (address >>
     * log2(lineBytes)) in the top 56 bits, the line's recency rank in
     * its set in bits 7:2, and its CohState in bits 1:0. The valid
     * lines of a set hold exactly the ranks 0 (most recently used) to
     * n-1, so the highest rank is the least recently used line: the
     * same victim an unbounded LRU stamp would pick. All-zero bytes are
     * the default, invalid line: lines_ starts zeroed.
     */
    struct Line
    {
        static constexpr uint64_t META = 0xff;
        static constexpr unsigned RANK_SHIFT = 2;
        static constexpr unsigned MAX_RANKS = 64;

        uint64_t word = 0;

        CohState st() const { return static_cast<CohState>(word & 3); }
        bool valid() const { return st() != CohState::I; }
        unsigned rank() const { return (word >> RANK_SHIFT) & 63; }
        void
        setSt(CohState s)
        {
            word = (word & ~3ULL) | static_cast<uint64_t>(s);
        }
        void
        setRank(unsigned r)
        {
            word = (word & ~(63ULL << RANK_SHIFT)) |
                   (static_cast<uint64_t>(r) << RANK_SHIFT);
        }
    };
    static_assert(static_cast<int>(CohState::I) == 0);
    static_assert(sizeof(Line) == 8);

    struct Mshr
    {
        Addr line = ~0ULL;
        Cycle readyAt = 0;
    };

    Addr lineAddr(Addr paddr) const { return paddr & ~lineMask_; }
    /** The tag bits of @p line as they sit in Line::word. */
    uint64_t tagOf(Addr line) const
    {
        return (line >> lineShift_) << 8;
    }
    Addr lineOf(const Line &l) const
    {
        return (l.word >> 8) << lineShift_;
    }
    /** First way of the set @p line maps to. */
    Line *setOf(Addr line);
    /** The valid way of @p set holding @p line, or nullptr. */
    Line *find(Line *set, Addr line) const;
    const Line *findLine(Addr line) const
    {
        return find(const_cast<Cache *>(this)->setOf(line), line);
    }
    /** Make @p l the most recently used line of @p set. */
    void touch(Line *set, Line *l);
    /** Invalidate @p l, closing the gap it leaves in @p set's ranks. */
    void invalidate(Line *set, Line *l);

    /**
     * Serve a child's Acquire. Handles peer probes, self lookup, and
     * recursion toward memory.
     * @param requester     the child asking (nullptr = self/L1 path)
     * @param exclusive     write permission required
     * @param grantExcl     out: true when the grant is E/M-capable
     * @return latency contribution
     */
    unsigned acquire(Cache *requester, Addr line, bool exclusive,
                     bool &grantExcl, Cycle now);

    /** Recursively drop the line (peer invalidation / back-inval). */
    unsigned probeInvalidate(Addr line, Cycle now);

    /** Recursively downgrade to shared. */
    unsigned probeShared(Addr line, Cycle now);

    /** Install @p line in this array, evicting as needed. */
    unsigned install(Addr line, CohState st, Cycle now);

    /** Account an MSHR slot; returns extra delay and merge latency. */
    unsigned mshrDelay(Addr line, Cycle now, unsigned missLatency);

    void
    log(TxnKind kind, Addr line, Cycle at) const
    {
        for (const auto &observer : txnLogs_)
            observer({kind, line, this, name_.c_str(), at});
    }

    std::string name_;
    CacheCfg cfg_;
    Cache *parent_;
    DramModel *dram_;
    std::vector<Cache *> children_;
    ZeroedArray<Line> lines_; ///< zero-filled page by page on touch
    std::vector<Mshr> mshrs_;
    unsigned sets_;
    unsigned setMask_;    ///< sets_ - 1 when sets_ is a power of two, else 0
    unsigned lineShift_;  ///< log2(lineBytes)
    Addr lineMask_;
    CacheStats stats_;
    std::vector<TxnLog> txnLogs_;
};

} // namespace minjie::uarch

#endif // MINJIE_UARCH_CACHE_H
