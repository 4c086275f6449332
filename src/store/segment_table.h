// SegTbl — the in-DRAM segment index (paper §3.2.3).
//
// The only per-key-range state LEED keeps in SmartNIC DRAM: one entry per
// segment holding the key-log offset of the newest bucket of the chain,
// the chain length (K bits), an SSD id (swap support), and one lock bit
// used for concurrency control between PUT/DEL, COPY, and value-log
// compaction ("We simply use one lock bit in the segment table").
//
// Segment ids are dense [0, num_segments), so a flat vector is the
// hashtable (identity hash, zero collisions). DRAM accounting is reported
// with the paper's field widths (4B offset + K bits), independent of the
// wider in-memory C++ types.
//
// Lock waiters: operations that hit a locked segment park a continuation
// here and are resumed FIFO on unlock — the event-based equivalent of the
// prototype's waiting event queue (§3.3).

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace leed::store {

struct SegmentEntry {
  uint64_t offset = 0;     // key-log logical offset of the chain head bucket
  uint8_t chain_len = 0;   // 0 => segment empty, no bucket yet
  uint8_t ssd = 0;         // SSD holding the chain head (data swapping)
  bool locked = false;

  bool Empty() const { return chain_len == 0; }
};

class SegmentTable {
 public:
  // chain_bits: the paper's K — how many bits the chain-length field gets
  // in the DRAM budget; also caps the maximum chain length at (1<<K)-1.
  explicit SegmentTable(uint32_t num_segments, uint32_t chain_bits = 4);

  uint32_t num_segments() const { return static_cast<uint32_t>(entries_.size()); }
  uint32_t max_chain() const { return (1u << chain_bits_) - 1; }

  SegmentEntry& At(uint32_t segment_id) { return entries_[segment_id]; }
  const SegmentEntry& At(uint32_t segment_id) const { return entries_[segment_id]; }

  bool IsLocked(uint32_t segment_id) const { return entries_[segment_id].locked; }

  // Try to take the lock bit; returns false if already held.
  bool TryLock(uint32_t segment_id);

  // Release the lock and hand back the first waiter (empty if none) for the
  // caller to schedule. The waiter is responsible for re-acquiring — lock
  // handoff is not implicit, matching a retried state machine rather than
  // ownership transfer.
  std::function<void()> Unlock(uint32_t segment_id);

  // Park a continuation until the segment unlocks.
  void WaitOnLock(uint32_t segment_id, std::function<void()> cont);

  size_t waiters(uint32_t segment_id) const;

  // DRAM bytes this table would occupy with the paper's encoding:
  // (4B offset + K bits chain + 1 lock bit + ~3 bits ssd) per segment.
  uint64_t PaperDramBytes() const;

  // DRAM bytes per indexed object given the expected object count — the
  // Challenge C1 metric (must land well under 0.5 B/object for 256 B
  // objects on a Stingray).
  double PaperBytesPerObject(uint64_t num_objects) const;

 private:
  std::vector<SegmentEntry> entries_;
  // Per-segment FIFO of blocked continuations; wakeups pop one deque by
  // segment id, so cross-segment order never depends on hash layout.
  // leed-lint: allow(unordered-iter): keyed wakeup via find() only
  std::unordered_map<uint32_t, std::deque<std::function<void()>>> waiters_;
  uint32_t chain_bits_;
};

}  // namespace leed::store
