/**
 * @file
 * The architectural-state blob of a RISC-V checkpoint (paper Figure 9).
 *
 * A checkpoint is exactly the architectural state plus the memory
 * image, and restores with no dependence on the RISC-V debug mode —
 * the property the paper highlights against Dromajo's format, enabling
 * early-stage processors to run checkpoints. This blob is the state
 * half: magic "MJCKPT01", pc, x[32], f[32], privilege, reservation,
 * instret and the machine/supervisor CSR subset, all u64. The memory
 * half, and the only checkpoint container, is the `.mjk` pack
 * (checkpoint/pack.h), which embeds one blob per checkpoint. Our
 * restore writes the state directly into a simulator; a hardware
 * bring-up path would lower the same content to the basic RV64
 * privileged instructions of Figure 9 (csrw/li sequences + memory
 * preload).
 */

#ifndef MINJIE_CHECKPOINT_CHECKPOINT_H
#define MINJIE_CHECKPOINT_CHECKPOINT_H

#include <cstdint>
#include <vector>

#include "iss/arch_state.h"

namespace minjie::checkpoint {

/** Byte size of the arch blob. */
size_t archHeaderBytes();

/** Append the arch blob of @p state to @p v. */
void serializeArch(std::vector<uint8_t> &v, const iss::ArchState &state);

/**
 * Decode the arch blob at @p data into @p state.
 * @return false, with @p state untouched, when @p len is short or the
 * magic or CSR count does not match.
 */
bool restoreArch(const uint8_t *data, size_t len, iss::ArchState &state);

} // namespace minjie::checkpoint

#endif // MINJIE_CHECKPOINT_CHECKPOINT_H
