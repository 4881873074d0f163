/**
 * @file
 * RISC-V architectural checkpoint format (paper Figure 9).
 *
 * A checkpoint captures exactly the architectural state plus the memory
 * image, and restores with no dependence on the RISC-V debug mode —
 * the property the paper highlights against Dromajo's format, enabling
 * early-stage processors to run checkpoints. Our restore path writes
 * the state directly into a simulator; a hardware bring-up path would
 * lower the same content to the basic RV64 privileged instructions of
 * Figure 9 (csrw/li sequences + memory preload).
 */

#ifndef MINJIE_CHECKPOINT_CHECKPOINT_H
#define MINJIE_CHECKPOINT_CHECKPOINT_H

#include <cstdint>
#include <vector>

#include "iss/arch_state.h"
#include "mem/physmem.h"

namespace minjie::checkpoint {

/** One serialized checkpoint. */
struct Checkpoint
{
    std::vector<uint8_t> bytes;

    /** Instructions executed before this checkpoint was taken. */
    uint64_t instCount = 0;

    bool valid() const { return !bytes.empty(); }
};

/**
 * Byte size of the fixed architectural-state header that starts every
 * checkpoint image (magic through the CSR block, memory excluded).
 * The sampled-simulation pack store splits images at this boundary so
 * N checkpoints of one program can share one deduplicated page pool.
 */
size_t archHeaderBytes();

/** Append just the architectural-state header for @p state to @p v. */
void serializeArch(std::vector<uint8_t> &v, const iss::ArchState &state);

/**
 * Decode an architectural-state header at @p data into @p state.
 * @return false, with @p state untouched, when @p len is short or the
 * magic or CSR count does not match.
 */
bool restoreArch(const uint8_t *data, size_t len, iss::ArchState &state);

/** True when the 4 KiB page at @p data is all zeros. */
bool pageIsZero(const uint8_t *data);

/** Serialize @p state and every allocated page of @p mem. All-zero
 *  pages are elided from the image; restore() re-creates them as
 *  zero-fill on first touch. */
Checkpoint serialize(const iss::ArchState &state,
                     const mem::PhysMem &mem, uint64_t instCount = 0);

/**
 * Restore @p cp into @p state / @p mem. The whole image is validated
 * first: its exact length, and every page base page-aligned inside
 * @p mem's DRAM range.
 * @return false, with @p state and @p mem untouched, on a malformed
 * image.
 */
bool restore(const Checkpoint &cp, iss::ArchState &state,
             mem::PhysMem &mem);

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_CHECKPOINT_H
