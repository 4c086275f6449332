#include "store/segment_table.h"

namespace leed::store {

SegmentTable::SegmentTable(uint32_t num_segments, uint32_t chain_bits)
    : entries_(num_segments), chain_bits_(chain_bits) {}

bool SegmentTable::TryLock(uint32_t segment_id) {
  SegmentEntry& e = entries_[segment_id];
  if (e.locked) return false;
  e.locked = true;
  return true;
}

std::function<void()> SegmentTable::Unlock(uint32_t segment_id) {
  entries_[segment_id].locked = false;
  auto it = waiters_.find(segment_id);
  if (it == waiters_.end()) return {};
  auto cont = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) waiters_.erase(it);
  return cont;
}

void SegmentTable::WaitOnLock(uint32_t segment_id, std::function<void()> cont) {
  waiters_[segment_id].push_back(std::move(cont));
}

size_t SegmentTable::waiters(uint32_t segment_id) const {
  auto it = waiters_.find(segment_id);
  return it == waiters_.end() ? 0 : it->second.size();
}

uint64_t SegmentTable::PaperDramBytes() const {
  // 4 B offset + K bits chain + 1 lock bit + 3 bits ssd id, rounded up.
  const double bits_per_entry = 32.0 + chain_bits_ + 1.0 + 3.0;
  return static_cast<uint64_t>(entries_.size() * bits_per_entry / 8.0 + 0.5);
}

double SegmentTable::PaperBytesPerObject(uint64_t num_objects) const {
  if (num_objects == 0) return 0.0;
  return static_cast<double>(PaperDramBytes()) / static_cast<double>(num_objects);
}

}  // namespace leed::store
