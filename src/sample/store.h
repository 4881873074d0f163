/**
 * @file
 * The `.mjk` checkpoint pack: an on-disk, mmap-able store holding every
 * SimPoint checkpoint of one workload behind a single deduplicated page
 * pool.
 *
 * Serial evaluation kept each checkpoint as its own
 * `std::vector<uint8_t>`, so N slices of one program carried N copies
 * of the (mostly identical) memory image. The pack stores each distinct
 * page once — content-hashed across checkpoints, zero pages elided
 * entirely — and the reader maps the file read-only, so forked workers
 * share one physical copy of the pool through the page cache instead of
 * re-faulting private heap copies.
 *
 * Weights are stored as exact integers (numerator over a common
 * denominator, the SimPoint interval count): the reduction then runs in
 * pure uint64 arithmetic, which is what makes the weighted top-down
 * stack byte-identical across worker counts.
 *
 * Layout (all fields little-endian u64, offsets from file start):
 *
 *   header:    magic, version, nCheckpoints, weightDen,
 *              pagePoolOff, nPoolPages
 *   table:     nCheckpoints x {instCount, weightNum,
 *              archOff, pageEntryOff, nPageEntries}
 *   arch blobs and page-entry arrays ({baseAddr, poolIdx} pairs)
 *   page pool: 4096-aligned, nPoolPages x 4096 bytes, deduplicated
 */

#ifndef MINJIE_SAMPLE_STORE_H
#define MINJIE_SAMPLE_STORE_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "iss/arch_state.h"
#include "mem/physmem.h"

namespace minjie::checkpoint {
struct GenResult;
}

namespace minjie::sample {

/** Builds a pack in memory; write it out once all checkpoints are in. */
class PackWriter
{
  public:
    /** @param weightDen common weight denominator (SimPoint interval
     *  count); every added checkpoint's weight is weightNum/weightDen. */
    explicit PackWriter(uint64_t weightDen) : weightDen_(weightDen) {}

    /**
     * Add one serialized checkpoint. The image is split at the
     * architectural-header boundary; each memory page is content-hashed
     * into the shared pool.
     * @return false if @p cp is malformed.
     */
    bool add(const checkpoint::Checkpoint &cp, uint64_t weightNum);

    /** Serialize the pack to bytes (deterministic for equal input). */
    std::vector<uint8_t> bytes() const;

    /** Write the pack to @p path (unbuffered POSIX I/O; fork-safe).
     *  @return false on any I/O error. */
    bool writeFile(const std::string &path) const;

    size_t checkpointCount() const { return table_.size(); }
    /** Distinct pages stored (after dedup + zero elision). */
    size_t poolPages() const { return pool_.size() / PAGE; }
    /** Page references across all checkpoints (before dedup). */
    size_t totalPageRefs() const { return totalRefs_; }

  private:
    static constexpr size_t PAGE = mem::PhysMem::PAGE_SIZE;

    struct Entry
    {
        uint64_t instCount;
        uint64_t weightNum;
        std::vector<uint8_t> arch;
        std::vector<std::pair<uint64_t, uint64_t>> pages; // base, idx
    };

    uint64_t poolIndexFor(const uint8_t *page);

    uint64_t weightDen_;
    std::vector<Entry> table_;
    std::vector<uint8_t> pool_;
    std::unordered_map<uint64_t, std::vector<uint64_t>> hashToIdx_;
    size_t totalRefs_ = 0;
};

/** Read-only view of a pack: either an mmap of the file (shared
 *  copy-free across forked workers) or an owned byte buffer. */
class PackReader
{
  public:
    PackReader() = default;
    ~PackReader();
    PackReader(PackReader &&other) noexcept { *this = std::move(other); }
    PackReader &operator=(PackReader &&other) noexcept;
    PackReader(const PackReader &) = delete;
    PackReader &operator=(const PackReader &) = delete;

    /** mmap @p path read-only. @return false on I/O or format error. */
    bool openFile(const std::string &path);

    /** Adopt an in-memory pack (tests, or writer-to-engine handoff). */
    bool openMemory(std::vector<uint8_t> bytes);

    bool valid() const { return data_ != nullptr; }
    size_t count() const { return nCheckpoints_; }
    uint64_t weightDen() const { return weightDen_; }
    uint64_t weightNum(size_t i) const;
    uint64_t instCount(size_t i) const;
    /** weightNum/weightDen as a double (reporting only — the
     *  reduction itself never leaves integer arithmetic). */
    double weight(size_t i) const;

    /**
     * Restore checkpoint @p i into @p state / @p mem. Clears @p mem
     * first; elided zero pages read back as zero-fill. Pages are mapped
     * from the pool and copied on first touch (PhysMem::mapPage), so
     * this pack must stay open until @p mem is next cleared.
     * @return false, with @p mem untouched, on a malformed entry.
     */
    bool restoreInto(size_t i, iss::ArchState &state,
                     mem::PhysMem &mem) const;

    size_t poolPages() const { return nPoolPages_; }
    size_t sizeBytes() const { return len_; }

  private:
    bool parse();
    void close();
    const uint8_t *tableEntry(size_t i) const;

    const uint8_t *data_ = nullptr;
    size_t len_ = 0;
    int fd_ = -1;               ///< >= 0 when mmap-backed
    std::vector<uint8_t> own_; ///< backing store for openMemory

    size_t nCheckpoints_ = 0;
    uint64_t weightDen_ = 0;
    uint64_t pagePoolOff_ = 0;
    uint64_t nPoolPages_ = 0;
};

/**
 * Pack a generator result, recovering SimPoint's exact integer weights
 * (clusterSize over intervalCount) from the fractional ones.
 * @return the serialized pack; empty when @p gen holds no checkpoints.
 */
std::vector<uint8_t> packFromGen(const checkpoint::GenResult &gen);

} // namespace minjie::sample

#endif // MINJIE_SAMPLE_STORE_H
