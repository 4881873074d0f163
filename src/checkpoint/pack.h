/**
 * @file
 * The `.mjk` checkpoint pack format and its writer: every SimPoint
 * checkpoint of one workload behind a single deduplicated page pool.
 *
 * N checkpoints of one program share most of their memory image (code
 * pages, untouched data). The pack stores each distinct page once —
 * content-hashed across checkpoints, zero pages elided entirely — and
 * the reader (sample::PackReader) maps the file read-only, so forked
 * workers share one physical copy of the pool through the page cache.
 *
 * Weights are stored as exact integers (numerator over a common
 * denominator, the SimPoint interval count): the reduction then runs in
 * pure uint64 arithmetic, which is what makes the weighted top-down
 * stack byte-identical across worker counts.
 *
 * Layout (all fields u64, offsets from file start). Every field is
 * written and read through common/bytes.h, which fixes little-endian
 * byte order whatever the host; the reader bounds every read:
 *
 *   header:    magic, version, nCheckpoints, weightDen,
 *              pagePoolOff, nPoolPages
 *   table:     nCheckpoints x {instCount, weightNum,
 *              archOff, pageEntryOff, nPageEntries}
 *   arch blobs (checkpoint/checkpoint.h) and page-entry arrays
 *              ({baseAddr, poolIdx} pairs, ascending baseAddr)
 *   page pool: 4096-aligned, nPoolPages x 4096 bytes, deduplicated,
 *              in order of first reference in table order
 */

#ifndef MINJIE_CHECKPOINT_PACK_H
#define MINJIE_CHECKPOINT_PACK_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "iss/arch_state.h"
#include "mem/physmem.h"

namespace minjie::checkpoint {

namespace pack {
constexpr uint64_t MAGIC = 0x4d4a504b30303031ULL; // "MJPK0001"
constexpr uint64_t VERSION = 1;
constexpr size_t HEADER_U64 = 6;
constexpr size_t TABLE_U64 = 5;
} // namespace pack

/**
 * Builds a pack from live snapshots of one running program. Pool work
 * follows what the program writes: a snapshot re-hashes only the pages
 * its memory marked dirty since the previous snapshot (and clears the
 * mark); every other page keeps its previous pool index. When the
 * memory differs from the previous snapshot's or was cleared since
 * (PhysMem::epoch), the snapshot scans every page instead.
 *
 * A new pool page that the memory still reads in place from a mapped
 * source (an image page not yet written) is kept by reference, with a
 * reference to its owner (PhysMem::sourceOwner); only other pages are
 * copied into the pool.
 */
class PackWriter
{
  public:
    PackWriter() = default;

    /** @param weightDen common weight denominator (SimPoint interval
     *  count)  @param count checkpoints (table slots) in the pack */
    PackWriter(uint64_t weightDen, size_t count)
        : weightDen_(weightDen), table_(count)
    {
    }

    /**
     * Snapshot @p state and @p mem into table slot @p slot, with weight
     * @p weightNum / weightDen. Clears @p mem's dirty set (bumping its
     * epoch). Slots may be filled in any order — snapshots are taken in
     * execution order, the table is kept in SimPoint order.
     */
    void snapshot(size_t slot, const iss::ArchState &state,
                  mem::PhysMem &mem, uint64_t instCount,
                  uint64_t weightNum);

    /** Serialize the pack: table in slot order, pool renumbered by
     *  first reference, so the bytes do not depend on the order the
     *  snapshots were taken in. The output's whole 2 MiB extents are
     *  advised huge before they are written. */
    std::vector<uint8_t> bytes() const;

    /** Distinct pages stored (after dedup + zero elision). */
    size_t poolPages() const { return pool_.size(); }
    /** Page references across all checkpoints (before dedup). */
    size_t totalPageRefs() const { return totalRefs_; }
    /** Pages zero-checked and hashed (dirty or new at a snapshot). */
    size_t pagesHashed() const { return hashed_; }

  private:
    static constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;
    /** Pool index of an elided all-zero page in live_. */
    static constexpr uint64_t ZERO = ~0ULL;

    struct Entry
    {
        uint64_t instCount = 0;
        uint64_t weightNum = 0;
        std::vector<uint8_t> arch;
        std::vector<std::pair<uint64_t, uint64_t>> pages; // base, idx
    };

    /** Pool index of the content @p page of @p mem's page at @p base
     *  (adding it), or ZERO. */
    uint64_t poolIndexFor(const mem::PhysMem &mem, Addr base,
                          const uint8_t *page);
    /** Double index_ (at least 64 entries) and re-insert its pages. */
    void growIndex();

    /** Copied pool pages live in fixed chunks, never reallocated: a
     *  doubling vector re-copies (and re-faults) every copied page. */
    static constexpr size_t CHUNK_PAGES = 256;
    const uint8_t *poolPage(uint64_t idx) const { return pool_[idx]; }

    uint64_t weightDen_ = 1;
    std::vector<Entry> table_;
    /** Every pool page: a mapped source or a page of chunks_. */
    std::vector<const uint8_t *> pool_;
    std::vector<std::unique_ptr<uint8_t[]>> chunks_;
    size_t copied_ = 0; ///< pages held in chunks_
    /** Owners of the mapped sources in pool_, each once. */
    std::vector<mem::PhysMem::Owner> owners_;
    /** Dedup index entry: a pool page and its content hash; idx ==
     *  ZERO marks an empty entry. */
    struct IndexEnt
    {
        uint64_t hash;
        uint64_t idx;
    };
    /** Open-addressed table of every pool page, size a power of two
     *  at least twice poolPages(). */
    std::vector<IndexEnt> index_;
    /** Every allocated page of the last snapshot, ascending base. */
    std::vector<std::pair<uint64_t, uint64_t>> live_;
    uint64_t liveEpoch_ = 0; ///< memory epoch live_ is current for
    size_t totalRefs_ = 0;
    size_t hashed_ = 0;
};

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_PACK_H
