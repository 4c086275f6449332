#include "store/compaction.h"

#include <algorithm>
#include <map>
#include <set>

namespace leed::store {

namespace {
// Partition `ids` into at most `groups` round-robin slices (none empty).
template <typename T>
std::vector<std::vector<T>> Partition(const std::vector<T>& ids, uint32_t groups) {
  groups = std::max(1u, groups);
  size_t n = std::min<size_t>(groups, std::max<size_t>(1, ids.size()));
  std::vector<std::vector<T>> out(n);
  for (size_t i = 0; i < ids.size(); ++i) out[i % n].push_back(ids[i]);
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// Triggers
// ---------------------------------------------------------------------------

bool Compactor::MaybeStart() {
  bool started = false;
  const auto& home = s_.home();
  const double th = s_.config().compaction_threshold;
  bool swap_pressure = s_.swapped_segments() > 64;
  if (!key_.running && (home.key_log->CompactionNeeded(th) || swap_pressure)) {
    StartKey([](Status) {});
    started = true;
  }
  if (!value_.running && home.value_log->CompactionNeeded(th)) {
    StartValue([](Status) {});
    started = true;
  }
  return started;
}

// ---------------------------------------------------------------------------
// The run lifecycle, shared by both logs
// ---------------------------------------------------------------------------

struct Compactor::Run {
  Run(Lane& l, DataStore::OpCallback d) : lane(l), done(std::move(d)) {}
  Lane& lane;
  DataStore::OpCallback done;
  uint64_t start = 0;  // log head when the run began
  uint64_t end = 0;    // where the head advances if every segment is rewritten
  // Value runs: the region's entries (logical offset, entry) by segment.
  std::map<uint32_t, std::vector<std::pair<uint64_t, ValueEntry>>> values;
  std::vector<std::vector<uint32_t>> groups;
  size_t groups_pending = 0;
  bool all_relocated = true;
};

log::CircularLog& Compactor::LogOf(const Lane& lane) const {
  return lane.key_log ? *s_.home().key_log : *s_.home().value_log;
}

uint64_t Compactor::Span(const Lane& lane) const {
  const auto& cfg = s_.config();
  const uint64_t used = LogOf(lane).used();
  if (!lane.key_log) return std::min(cfg.compaction_chunk + kValueSpanSlack, used);
  const uint64_t chunk = std::min<uint64_t>(cfg.compaction_chunk, used);
  return chunk - chunk % cfg.bucket_size;
}

void Compactor::Start(Lane& lane, DataStore::OpCallback done) {
  if (lane.running) {
    done(Status::Busy(lane.key_log ? "key compaction already running"
                                   : "value compaction already running"));
    return;
  }
  const uint64_t span = Span(lane);
  // A key run with an empty span still merges swapped segments back home.
  if (span == 0 && !(lane.key_log && s_.swapped_segments() > 0)) {
    done(Status::Ok());
    return;
  }
  auto& gate = s_.config().compaction_gate;
  if (gate && !gate->TryAcquire()) {
    // Co-scheduling cap reached; a later MaybeStart retries.
    done(Status::Busy("compaction gate full"));
    return;
  }
  lane.running = true;
  (lane.key_log ? s_.m_.key_compactions : s_.m_.value_compactions)->Inc();
  auto run = std::make_shared<Run>(lane, std::move(done));
  run->start = LogOf(lane).head();
  run->end = run->start + span;

  if (span == 0) {
    WithRegion(run, {});
    return;
  }
  if (lane.prefetch.valid && lane.prefetch.offset == run->start &&
      lane.prefetch.data.size() >= span) {
    s_.m_.prefetch_hits->Inc();
    auto data = std::move(lane.prefetch.data);
    data.resize(span);
    lane.prefetch = Lane::Prefetch{};
    // Verification pass over prefetched segments still costs cycles.
    s_.core().Run(s_.Cycles(s_.config().costs.compaction_setup),
                  [this, run, d = std::move(data)]() mutable {
                    WithRegion(run, std::move(d));
                  });
    return;
  }
  s_.m_.prefetch_misses->Inc();
  s_.m_.ssd_reads->Inc();
  LogOf(lane).Read(run->start, span, [this, run](log::ReadResult r) {
    if (!r.status.ok()) {
      Finish(*run, r.status);
      return;
    }
    WithRegion(run, std::move(r.data));
  });
}

void Compactor::WithRegion(std::shared_ptr<Run> run, std::vector<uint8_t> region) {
  std::vector<uint32_t> segs =
      run->lane.key_log ? KeySegments(region) : ValueSegments(*run, region);
  if (segs.empty()) {
    // A value region that parsed to no entry has nothing to advance over:
    // the run ends without prefetching or starting another. (A key region
    // of undecodable buckets is still advanced over.)
    if (run->end == run->start) {
      Finish(*run, Status::Ok());
      return;
    }
    run->groups_pending = 1;
    Join(run);
    return;
  }
  run->groups = Partition(segs, s_.config().subcompactions);
  run->groups_pending = run->groups.size();
  for (size_t g = 0; g < run->groups.size(); ++g) {
    s_.core().Run(s_.Cycles(s_.config().costs.compaction_setup),
                  [this, run, g] { RunGroup(run, g); });
  }
}

void Compactor::RunGroup(std::shared_ptr<Run> run, size_t group) {
  auto& ids = run->groups[group];
  if (ids.empty()) {
    Join(run);
    return;
  }
  uint32_t seg = ids.back();
  ids.pop_back();
  auto next = [this, run, group](bool ok) {
    if (!ok) run->all_relocated = false;
    RunGroup(run, group);
  };
  if (run->lane.key_log) {
    CollapseSegment(seg, s_.swapped_segments_.contains(seg), std::move(next));
  } else {
    RewriteLiveValues(run, seg, std::move(next));
  }
}

void Compactor::Join(std::shared_ptr<Run> run) {
  if (--run->groups_pending > 0) return;
  if (run->end > run->start && run->all_relocated) {
    Status st = LogOf(run->lane).AdvanceHead(run->end);
    (void)st;
  }
  IssuePrefetch(run->lane);
  Finish(*run, Status::Ok());
  // Keep draining if still above threshold.
  MaybeStart();
}

void Compactor::Finish(Run& run, Status status) {
  run.lane.running = false;
  if (s_.config().compaction_gate) s_.config().compaction_gate->Release();
  run.done(std::move(status));
}

void Compactor::IssuePrefetch(Lane& lane) {
  const uint64_t span = Span(lane);
  if (span == 0) return;
  const uint64_t start = LogOf(lane).head();
  s_.m_.ssd_reads->Inc();
  LogOf(lane).Read(start, span, [&lane, start](log::ReadResult r) {
    if (!r.status.ok()) return;
    lane.prefetch.valid = true;
    lane.prefetch.offset = start;
    lane.prefetch.data = std::move(r.data);
  });
}

// ---------------------------------------------------------------------------
// Region -> segments
// ---------------------------------------------------------------------------

std::vector<uint32_t> Compactor::KeySegments(const std::vector<uint8_t>& region) const {
  const uint32_t bucket_size = s_.config().bucket_size;
  std::vector<uint32_t> segs;
  std::set<uint32_t> uniq;
  for (size_t at = 0; at + bucket_size <= region.size(); at += bucket_size) {
    auto b = DecodeBucket(region, at, bucket_size);
    if (!b.ok()) continue;
    uint32_t seg = b.value().header.segment_id;
    if (uniq.insert(seg).second) segs.push_back(seg);
  }
  // Swap merge-back: pull up to kSwapMergePerRun parked segments home too.
  size_t merged_in = 0;
  for (uint32_t seg : s_.swapped_segments_) {
    if (merged_in >= kSwapMergePerRun) break;
    if (uniq.insert(seg).second) {
      segs.push_back(seg);
      ++merged_in;
    }
  }
  return segs;
}

std::vector<uint32_t> Compactor::ValueSegments(Run& run,
                                               const std::vector<uint8_t>& region) {
  const uint64_t chunk_end = run.start + s_.config().compaction_chunk;
  uint64_t pos = 0;
  uint64_t logical = run.start;
  while (pos + ValueEntry::kHeaderBytes <= region.size() && logical < chunk_end) {
    auto entry = DecodeValueEntry(region, pos);
    if (!entry.ok()) break;  // truncated tail entry: stop before it
    uint64_t sz = entry.value().EncodedSize();
    run.values[entry.value().segment_id].emplace_back(logical,
                                                      std::move(entry).value());
    pos += sz;
    logical += sz;
  }
  run.end = logical;
  std::vector<uint32_t> segs;
  segs.reserve(run.values.size());
  for (const auto& entry : run.values) segs.push_back(entry.first);
  return segs;
}

// ---------------------------------------------------------------------------
// Per-segment actions
// ---------------------------------------------------------------------------

void Compactor::CollapseSegment(uint32_t segment_id, bool relocate_values,
                                std::function<void(bool)> done) {
  if (s_.segments().At(segment_id).Empty()) {
    done(true);
    return;
  }
  if (!s_.TryLockOrWait(segment_id, [this, segment_id, relocate_values, done] {
        CollapseSegment(segment_id, relocate_values, done);
      })) {
    return;
  }
  const SegmentEntry& e = s_.segments().At(segment_id);
  s_.ReadChain(segment_id, e.ssd, e.offset, e.chain_len,
               [this, segment_id, relocate_values, d = std::move(done)](
                   Status st, std::vector<Bucket> chain) mutable {
    if (!st.ok()) {
      s_.UnlockAndPump(segment_id);
      d(false);
      return;
    }
    auto merged = std::make_shared<std::vector<KeyItem>>(MergeChain(chain));
    uint64_t total_items = 0;
    for (const auto& b : chain) total_items += b.items.size();
    s_.m_.items_dropped->Add(total_items - merged->size());
    s_.core().Run(
        s_.Cycles(s_.config().costs.compaction_per_item *
                  std::max<uint64_t>(1, total_items)),
        [this, segment_id, relocate_values, merged, d = std::move(d)]() mutable {
          if (relocate_values) {
            RelocateValues(segment_id, merged, 0, [this, segment_id, merged,
                                                   d2 = std::move(d)]() mutable {
              WriteMergedSegment(segment_id, merged, std::move(d2));
            });
          } else {
            WriteMergedSegment(segment_id, merged, std::move(d));
          }
        });
  });
}

void Compactor::RewriteLiveValues(std::shared_ptr<Run> run, uint32_t segment_id,
                                  std::function<void(bool)> done) {
  if (!s_.TryLockOrWait(segment_id, [this, run, segment_id, done] {
        RewriteLiveValues(run, segment_id, done);
      })) {
    return;
  }
  const SegmentEntry& e = s_.segments().At(segment_id);
  if (e.Empty()) {
    // All this segment's region values are dead (segment was emptied).
    s_.UnlockAndPump(segment_id);
    done(true);
    return;
  }
  s_.ReadChain(segment_id, e.ssd, e.offset, e.chain_len,
               [this, run, segment_id, d = std::move(done)](
                   Status st, std::vector<Bucket> chain) mutable {
    if (!st.ok()) {
      s_.UnlockAndPump(segment_id);
      d(false);
      return;
    }
    auto merged = std::make_shared<std::vector<KeyItem>>(MergeChain(chain));
    const auto& region_entries = run->values[segment_id];
    const uint8_t home_ssd = s_.home().ssd_id;

    // Liveness: a region value survives iff a merged item still points at
    // it (same key, same offset, on the home SSD). Collect (item index,
    // offset relative to the batch) for each survivor.
    std::vector<uint8_t> batch;
    std::vector<std::pair<size_t, uint64_t>> rewrites;
    for (const auto& [offset, entry] : region_entries) {
      for (size_t i = 0; i < merged->size(); ++i) {
        const KeyItem& item = (*merged)[i];
        if (item.key == entry.key && item.value_ssd == home_ssd &&
            item.value_offset == offset) {
          auto encoded = EncodeValueEntry(entry);
          rewrites.emplace_back(i, batch.size());
          batch.insert(batch.end(), encoded.begin(), encoded.end());
          break;
        }
      }
    }
    uint64_t cycles = s_.config().costs.compaction_per_item *
                      std::max<uint64_t>(1, region_entries.size() + merged->size());
    s_.core().Run(s_.Cycles(cycles), [this, segment_id, merged,
                                      batch = std::move(batch),
                                      rewrites = std::move(rewrites),
                                      d = std::move(d)]() mutable {
      const LogSet& home = s_.home();
      if (batch.empty()) {
        // Every region value of this segment is dead: nothing to move and
        // no need to touch the segment.
        s_.UnlockAndPump(segment_id);
        d(true);
        return;
      }
      if (batch.size() > home.value_log->free_space()) {
        s_.UnlockAndPump(segment_id);
        d(false);
        return;
      }
      // Reserve offsets and append in the same event (no interleaving).
      const uint64_t base = home.value_log->tail();
      for (const auto& [index, relative] : rewrites) {
        KeyItem& item = (*merged)[index];
        const RangeIndex::ValueLoc old_loc{item.value_ssd, item.value_offset,
                                           item.value_len};
        item.value_offset = base + relative;
        // Keep the ordered view pointing at live bytes across the rewrite
        // (no-op if a newer PUT already owns the index entry).
        s_.RepairIndexLocation(item.key, old_loc,
                               {item.value_ssd, item.value_offset, item.value_len});
      }
      s_.m_.ssd_writes->Inc();
      home.value_log->Append(std::move(batch), [this, segment_id, merged,
                                                d = std::move(d)](
                                                   log::AppendResult r) mutable {
        if (!r.status.ok()) {
          s_.UnlockAndPump(segment_id);
          d(false);
          return;
        }
        WriteMergedSegment(segment_id, merged, std::move(d));
      });
    });
  });
}

void Compactor::RelocateValues(uint32_t segment_id,
                               std::shared_ptr<std::vector<KeyItem>> merged,
                               size_t index, std::function<void()> done) {
  const uint8_t home_ssd = s_.home().ssd_id;
  while (index < merged->size() && (*merged)[index].value_ssd == home_ssd) ++index;
  if (index >= merged->size()) {
    done();
    return;
  }
  KeyItem& item = (*merged)[index];
  if (!s_.HasLogSet(item.value_ssd)) {  // defensive: unknown donor
    RelocateValues(segment_id, merged, index + 1, std::move(done));
    return;
  }
  const LogSet& donor = s_.log_set(item.value_ssd);
  uint32_t bytes = ValueEntryBytes(static_cast<uint32_t>(item.key.size()),
                                   item.value_len);
  s_.m_.ssd_reads->Inc();
  donor.value_log->Read(item.value_offset, bytes,
                        [this, segment_id, merged, index, home_ssd,
                         d = std::move(done)](log::ReadResult r) mutable {
    if (!r.status.ok()) {
      RelocateValues(segment_id, merged, index + 1, std::move(d));
      return;
    }
    auto entry = DecodeValueEntry(r.data, 0);
    if (!entry.ok()) {
      RelocateValues(segment_id, merged, index + 1, std::move(d));
      return;
    }
    const LogSet& home = s_.home();
    std::vector<uint8_t> encoded = EncodeValueEntry(entry.value());
    if (encoded.size() > home.value_log->free_space()) {
      // No room to pull it home yet; leave it on the donor for a later run.
      RelocateValues(segment_id, merged, index + 1, std::move(d));
      return;
    }
    // Offset reservation and Append happen in the same event — no other
    // append can interleave in a single-threaded event loop.
    KeyItem& it = (*merged)[index];
    const RangeIndex::ValueLoc old_loc{it.value_ssd, it.value_offset,
                                       it.value_len};
    it.value_offset = home.value_log->tail();
    it.value_ssd = home_ssd;
    // Repoint the ordered view before the donor copy can be reclaimed, so
    // scan snapshots taken after this event see the home location.
    s_.RepairIndexLocation(it.key, old_loc,
                           {it.value_ssd, it.value_offset, it.value_len});
    s_.m_.ssd_writes->Inc();
    home.value_log->Append(std::move(encoded),
                           [this, segment_id, merged, index,
                            d2 = std::move(d)](log::AppendResult) mutable {
      RelocateValues(segment_id, merged, index + 1, std::move(d2));
    });
  });
}

void Compactor::WriteMergedSegment(uint32_t segment_id,
                                   std::shared_ptr<std::vector<KeyItem>> merged,
                                   std::function<void(bool)> done) {
  SegmentTable& tbl = s_.segments();
  const LogSet& home = s_.home();
  const uint32_t bucket_size = s_.config().bucket_size;

  if (merged->empty()) {
    SegmentEntry& e = tbl.At(segment_id);
    e.offset = 0;
    e.chain_len = 0;
    e.ssd = home.ssd_id;
    s_.swapped_segments_.erase(segment_id);
    s_.m_.segments_collapsed->Inc();
    s_.UnlockAndPump(segment_id);
    done(true);
    return;
  }

  // Pack items into buckets first-fit in order: newest items land in the
  // head bucket, preserving newest-first traversal.
  std::vector<Bucket> buckets(1);
  for (auto& item : *merged) {
    if (!buckets.back().Upsert(bucket_size, item)) {
      buckets.emplace_back();
      bool ok = buckets.back().Upsert(bucket_size, item);
      (void)ok;
    }
  }
  const uint8_t n = static_cast<uint8_t>(buckets.size());
  const uint64_t base = home.key_log->tail();
  std::vector<uint8_t> blob;
  blob.reserve(static_cast<size_t>(n) * bucket_size);
  for (uint8_t i = 0; i < n; ++i) {
    BucketHeader& h = buckets[i].header;
    h.segment_id = segment_id;
    h.tag = BucketTag(segment_id);
    h.chain_len = static_cast<uint8_t>(n - i);
    h.position = i;
    h.contiguous = (i + 1 < n) ? 1 : 0;
    h.prev_offset = (i + 1 < n) ? base + static_cast<uint64_t>(i + 1) * bucket_size : 0;
    h.prev_ssd = home.ssd_id;
    h.log_head = static_cast<uint32_t>(home.key_log->head());
    h.log_tail = static_cast<uint32_t>(home.key_log->tail());
    h.owner_store = static_cast<uint8_t>(s_.config().store_id);
    auto enc = EncodeBucket(buckets[i], bucket_size);
    if (!enc.ok()) {
      s_.UnlockAndPump(segment_id);
      done(false);
      return;
    }
    blob.insert(blob.end(), enc.value().begin(), enc.value().end());
  }
  if (blob.size() > home.key_log->free_space()) {
    // Cannot relocate right now; the segment stays where it is and this
    // run must not advance the head over its old buckets.
    s_.UnlockAndPump(segment_id);
    done(false);
    return;
  }
  s_.m_.ssd_writes->Inc();
  s_.m_.items_live_moved->Add(merged->size());
  // The swapped mark may only clear once every value reference is home too
  // (RelocateValues can skip items when the home value log is tight).
  bool all_values_home = true;
  for (const auto& item : *merged) {
    if (item.value_ssd != home.ssd_id) {
      all_values_home = false;
      break;
    }
  }
  home.key_log->Append(std::move(blob), [this, segment_id, base, n, all_values_home,
                                         d = std::move(done)](log::AppendResult r) mutable {
    bool ok = r.status.ok();
    if (ok) {
      SegmentEntry& e = s_.segments().At(segment_id);
      e.offset = base;
      e.chain_len = n;
      e.ssd = s_.home().ssd_id;
      if (all_values_home) s_.swapped_segments_.erase(segment_id);
      s_.m_.segments_collapsed->Inc();
    }
    s_.UnlockAndPump(segment_id);
    d(ok);
  });
}

}  // namespace leed::store
