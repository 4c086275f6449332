// DRAM range index (ordered view over the key log).
//
// LEED's hash layout (SegTbl + bucket chains) answers point ops in 2/3/2
// NVMe accesses but cannot answer range queries. An ordered map
// (`std::map`) keeps a sorted key -> value-log-location map in DRAM
// alongside SegTbl, following KVell's sorted-in-DRAM / unsorted-on-SSD
// split:
//
//   * PUT/DEL maintain it at commit time (upsert / erase-on-tombstone),
//   * recovery rebuilds it from a full bucket scan of the recovered SegTbl,
//   * compaction and swap merge-back repair locations whenever a live value
//     is relocated, so a scan snapshot never strands a stale location
//     longer than one value-log head advance.
//
// SCAN takes a synchronous snapshot of the ordered (key, location) run via
// VisitFrom — one simulator event, hence atomic with respect to the store —
// and then fetches the immutable value-log entries asynchronously. The
// walk's CPU cost is charged from calibration (`scan_index_per_item`), so
// the map's in-memory shape never reaches sim time.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace leed::store {

class RangeIndex {
 public:
  // Where the newest committed value of a key lives.
  struct ValueLoc {
    uint8_t ssd = 0;
    uint64_t offset = 0;
    uint32_t value_len = 0;

    bool operator==(const ValueLoc& o) const {
      return ssd == o.ssd && offset == o.offset && value_len == o.value_len;
    }
  };

  RangeIndex() = default;
  RangeIndex(const RangeIndex&) = delete;
  RangeIndex& operator=(const RangeIndex&) = delete;

  // Insert or overwrite. Returns true if the key was new.
  bool Upsert(std::string_view key, ValueLoc loc);
  bool Erase(std::string_view key);
  std::optional<ValueLoc> Find(std::string_view key) const;

  // Compaction/swap repair: repoint `key` to `to` iff the index still maps
  // it to exactly `from` (a newer PUT owns the entry otherwise). Returns
  // true if the entry was repointed.
  bool Repair(std::string_view key, const ValueLoc& from, const ValueLoc& to);

  void Clear() { map_.clear(); }
  size_t size() const { return map_.size(); }

  // In-order visit of every entry with key >= start; stop when fn returns
  // false. Synchronous — callers snapshot under one simulator event.
  void VisitFrom(std::string_view start,
                 const std::function<bool(const std::string&, const ValueLoc&)>&
                     fn) const;

  // Full in-order visit (VisitFrom "").
  void Visit(const std::function<void(const std::string&, const ValueLoc&)>&
                 fn) const;

  // Deterministic full serialization ("key ssd offset len\n" per entry, keys
  // percent-escaped) — the byte-for-byte comparison oracle the crash-torture
  // harness uses against a fresh bucket scan.
  std::string DebugDump() const;

 private:
  std::map<std::string, ValueLoc, std::less<>> map_;
};

}  // namespace leed::store
