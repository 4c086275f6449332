// Superblock: durable storage for the recovery checkpoint.
//
// RecoverSegTbl (store/recovery.h) needs the log head/tail pointers from
// before the crash. A real deployment persists them in a superblock that
// is rewritten on every checkpoint; we implement that block here — a
// versioned, CRC-protected, fixed-layout encoding written to a reserved
// device region with dual (A/B) slots so a torn superblock write can
// never lose both copies: readers pick the newest slot whose CRC passes.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "sim/block_device.h"
#include "store/recovery.h"

namespace leed::store {

// Serialize / parse a checkpoint (with sequence number for A/B arbitration).
std::vector<uint8_t> EncodeSuperblock(const RecoveryCheckpoint& checkpoint,
                                      uint64_t sequence);
// Returns the checkpoint and its sequence, or kCorruption on bad magic/CRC.
Result<std::pair<RecoveryCheckpoint, uint64_t>> DecodeSuperblock(
    const std::vector<uint8_t>& data);

// Size of the reserved region (two slots).
constexpr uint64_t kSuperblockSlotBytes = 4096;
constexpr uint64_t kSuperblockRegionBytes = 2 * kSuperblockSlotBytes;

// Write the checkpoint to the A/B slot pair at `region_offset` on `device`
// (alternating by sequence parity). Asynchronous.
void WriteSuperblock(sim::BlockDevice& device, uint64_t region_offset,
                     const RecoveryCheckpoint& checkpoint, uint64_t sequence,
                     std::function<void(Status)> done);

// Read both slots and return the newest valid checkpoint.
void ReadSuperblock(
    sim::BlockDevice& device, uint64_t region_offset,
    std::function<void(Status, RecoveryCheckpoint, uint64_t sequence)> done);

}  // namespace leed::store
