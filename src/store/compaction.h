// Compaction for the LEED data store (paper §3.3.1).
//
// Both circular logs compact with one lifecycle (Start .. Join/Finish):
//   1. refuse with Busy if this log already has a run;
//   2. size the span at the log head (nothing to do: done(Ok));
//   3. take a CompactionGate slot (Fig. 13b), or refuse with Busy;
//   4. use the span prefetched during the previous run, else read it;
//   5. map the region to the segments it touches;
//   6. partition them into S groups processed concurrently, overlapping
//      their IOs (S-way sub-compactions, Fig. 13a);
//   7. join: advance the head if every segment was rewritten, prefetch the
//      next run's span (Fig. 13a setup), release the gate, call done, then
//      start another run if a log is still over its threshold.
// Finish is the one place a run releases its gate slot, on every exit.
//
// Only three things differ between the logs:
//   * the span: a bucket-aligned chunk for the key log; the chunk plus
//     kValueSpanSlack for the value log, so the entry straddling the
//     chunk's end parses whole;
//   * region -> segments: the key log decodes buckets and adds up to
//     kSwapMergePerRun segments that data swapping (§3.6) parked on donor
//     SSDs; the value log decodes value entries and groups them by segment;
//   * the per-segment action: CollapseSegment for the key log — merge the
//     chain newest-wins, pull swapped values home, rewrite the segment at
//     the tail as one contiguous bucket array; RewriteLiveValues for the
//     value log — re-append the region values a merged item still points
//     at, then rewrite the segment. Old values stay readable until the head
//     moves — the property §3.3.1 relies on ("our log structure ensures
//     that the old value is still valid before committing").

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/data_store.h"

namespace leed::store {

class Compactor {
 public:
  explicit Compactor(DataStore& store) : s_(store) {}

  // Start a run if a log crossed its threshold or swapped segments piled
  // up. Returns true if anything started.
  bool MaybeStart();

  bool running() const { return key_.running || value_.running; }

  void StartKey(DataStore::OpCallback done) { Start(key_, std::move(done)); }
  void StartValue(DataStore::OpCallback done) { Start(value_, std::move(done)); }

  // How many swapped segments one key run merges back at most.
  static constexpr size_t kSwapMergePerRun = 32;

 private:
  // Bytes a value run reads past its chunk so the last entry straddling
  // the chunk boundary parses completely.
  static constexpr uint64_t kValueSpanSlack = 64 * 1024;

  // One log's compaction state.
  struct Lane {
    explicit Lane(bool key) : key_log(key) {}
    const bool key_log;  // the key log; otherwise the value log
    bool running = false;
    // Run N+1's span, read in the background when run N ends, so the next
    // run starts from DRAM (Fig. 13a setup).
    struct Prefetch {
      bool valid = false;
      uint64_t offset = 0;
      std::vector<uint8_t> data;
    } prefetch;
  };
  struct Run;

  log::CircularLog& LogOf(const Lane& lane) const;
  uint64_t Span(const Lane& lane) const;

  void Start(Lane& lane, DataStore::OpCallback done);
  void WithRegion(std::shared_ptr<Run> run, std::vector<uint8_t> region);
  void RunGroup(std::shared_ptr<Run> run, size_t group);
  void Join(std::shared_ptr<Run> run);
  void Finish(Run& run, Status status);
  void IssuePrefetch(Lane& lane);

  // Region -> segments, per log.
  std::vector<uint32_t> KeySegments(const std::vector<uint8_t>& region) const;
  std::vector<uint32_t> ValueSegments(Run& run, const std::vector<uint8_t>& region);

  // Per-segment actions. done(ok): ok==false means live data stayed at its
  // old location and the run must not advance the log head over it.
  void CollapseSegment(uint32_t segment_id, bool relocate_values,
                       std::function<void(bool)> done);
  void RewriteLiveValues(std::shared_ptr<Run> run, uint32_t segment_id,
                         std::function<void(bool)> done);

  void RelocateValues(uint32_t segment_id,
                      std::shared_ptr<std::vector<KeyItem>> merged, size_t index,
                      std::function<void()> done);
  void WriteMergedSegment(uint32_t segment_id,
                          std::shared_ptr<std::vector<KeyItem>> merged,
                          std::function<void(bool)> done);

  DataStore& s_;
  Lane key_{true};
  Lane value_{false};
};

}  // namespace leed::store
