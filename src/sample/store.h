/**
 * @file
 * Reader of the `.mjk` checkpoint pack (format and writer:
 * checkpoint/pack.h). The reader maps the file read-only, so forked
 * sample workers share one physical copy of the page pool through the
 * page cache instead of re-faulting private heap copies.
 */

#ifndef MINJIE_SAMPLE_STORE_H
#define MINJIE_SAMPLE_STORE_H

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/pack.h"
#include "iss/arch_state.h"
#include "mem/physmem.h"

namespace minjie::checkpoint {
struct GenResult;
}

namespace minjie::sample {

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
     * @return false, with @p state and @p mem untouched, on a malformed
     * entry (a page base must be page-aligned and inside @p mem).
     */
    bool restoreInto(size_t i, iss::ArchState &state,
                     mem::PhysMem &mem) const;

    size_t poolPages() const { return nPoolPages_; }
    size_t sizeBytes() const { return len_; }

  private:
    bool parse();
    void close();
    /** Word @p field of table entry @p i. */
    uint64_t tableField(size_t i, size_t field) const;

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
 * The serialized pack of a generator result (its writer's bytes()).
 * @return empty when @p gen holds no checkpoints.
 */
std::vector<uint8_t> packFromGen(const checkpoint::GenResult &gen);

} // namespace minjie::sample

#endif // MINJIE_SAMPLE_STORE_H
