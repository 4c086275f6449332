#include "store/data_store.h"

#include <algorithm>
#include <cassert>

#include "store/compaction.h"

namespace leed::store {

DataStore::DataStore(sim::Simulator& simulator, sim::CpuCore& core, LogSet home,
                     StoreConfig config)
    : sim_(simulator),
      core_(core),
      config_(std::move(config)),
      home_(home),
      segtbl_(config_.num_segments, config_.chain_bits),
      scope_(config_.metrics_registry,
             config_.metrics_prefix.empty()
                 ? "store" + std::to_string(config_.store_id)
                 : config_.metrics_prefix) {
  // A store re-created under a previously used name starts from zero.
  scope_.ResetInstruments();
  m_.gets = scope_.GetCounter("gets");
  m_.puts = scope_.GetCounter("puts");
  m_.dels = scope_.GetCounter("dels");
  m_.get_not_found = scope_.GetCounter("get_not_found");
  m_.ssd_reads = scope_.GetCounter("ssd_reads");
  m_.ssd_writes = scope_.GetCounter("ssd_writes");
  m_.get_chain_extra_reads = scope_.GetCounter("get_chain_extra_reads");
  m_.get_retries = scope_.GetCounter("get_retries");
  m_.key_compactions = scope_.GetCounter("key_compactions");
  m_.value_compactions = scope_.GetCounter("value_compactions");
  m_.segments_collapsed = scope_.GetCounter("segments_collapsed");
  m_.items_live_moved = scope_.GetCounter("items_live_moved");
  m_.items_dropped = scope_.GetCounter("items_dropped");
  m_.swap_puts = scope_.GetCounter("swap_puts");
  m_.prefetch_hits = scope_.GetCounter("prefetch_hits");
  m_.prefetch_misses = scope_.GetCounter("prefetch_misses");
  m_.lock_waits = scope_.GetCounter("lock_waits");
  m_.puts_failed_full = scope_.GetCounter("puts_failed_full");
  m_.fast_gets = scope_.GetCounter("fast_gets");
  m_.fast_get_aborts = scope_.GetCounter("fast_get_aborts");
  m_.scans = scope_.GetCounter("scans");
  m_.scan_items = scope_.GetCounter("scan_items");
  m_.scan_stale_locs = scope_.GetCounter("scan_stale_locs");
  log_sets_[home.ssd_id] = home;
  compactor_ = std::make_unique<Compactor>(*this);
}

DataStore::~DataStore() = default;

StoreStats DataStore::stats() const {
  StoreStats s;
  s.gets = m_.gets->value();
  s.puts = m_.puts->value();
  s.dels = m_.dels->value();
  s.get_not_found = m_.get_not_found->value();
  s.ssd_reads = m_.ssd_reads->value();
  s.ssd_writes = m_.ssd_writes->value();
  s.get_chain_extra_reads = m_.get_chain_extra_reads->value();
  s.get_retries = m_.get_retries->value();
  s.key_compactions = m_.key_compactions->value();
  s.value_compactions = m_.value_compactions->value();
  s.segments_collapsed = m_.segments_collapsed->value();
  s.items_live_moved = m_.items_live_moved->value();
  s.items_dropped = m_.items_dropped->value();
  s.swap_puts = m_.swap_puts->value();
  s.prefetch_hits = m_.prefetch_hits->value();
  s.prefetch_misses = m_.prefetch_misses->value();
  s.lock_waits = m_.lock_waits->value();
  s.puts_failed_full = m_.puts_failed_full->value();
  s.fast_gets = m_.fast_gets->value();
  s.fast_get_aborts = m_.fast_get_aborts->value();
  s.scans = m_.scans->value();
  s.scan_items = m_.scan_items->value();
  s.scan_stale_locs = m_.scan_stale_locs->value();
  return s;
}

void DataStore::AddLogSet(LogSet set) { log_sets_[set.ssd_id] = set; }

void DataStore::SetSwapTarget(std::optional<uint8_t> ssd_id) {
  if (ssd_id && !HasLogSet(*ssd_id)) return;  // unknown donor: ignore
  swap_target_ = ssd_id;
}

const LogSet& DataStore::TargetLogs() const {
  if (swap_target_) {
    const LogSet& swap = log_sets_.at(*swap_target_);
    // Fall back to home if the donor region cannot absorb a worst-case
    // bucket + value append.
    if (swap.key_log->free_space() > 4ull * config_.bucket_size &&
        swap.value_log->free_space() > 64ull * 1024) {
      return swap;
    }
  }
  return home_;
}

void DataStore::UnlockAndPump(uint32_t segment_id) {
  if (auto next = segtbl_.Unlock(segment_id)) sim_.Schedule(0, std::move(next));
}

// ---------------------------------------------------------------------------
// GET
// ---------------------------------------------------------------------------

struct DataStore::GetOp {
  std::string key;
  GetCallback callback;
  uint32_t segment = 0;
  uint32_t attempts = 0;
  bool offloaded = false;  // host-bypass: skip per-step CPU charges
};

void DataStore::RunGetWork(const std::shared_ptr<GetOp>& op, uint64_t cycles,
                           std::function<void()> fn) {
  if (op->offloaded) {
    sim_.Schedule(0, std::move(fn));
  } else {
    core_.Run(Cycles(cycles), std::move(fn));
  }
}

void DataStore::Get(std::string key, GetCallback callback) {
  auto op = std::make_shared<GetOp>();
  op->key = std::move(key);
  op->callback = std::move(callback);
  m_.gets->Inc();
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { GetLookup(op); });
}

bool DataStore::FastGetEligible(std::string_view key) const {
  // Eligible iff the SegTbl entry resolves the head bucket directly and the
  // chain has a single bucket: the offload engine never walks chains (a walk
  // would be unbounded work hidden from the CPU model).
  const SegmentEntry& e = segtbl_.At(SegmentOf(key));
  return !e.Empty() && e.chain_len == 1;
}

void DataStore::FastGet(std::string key, GetCallback callback) {
  auto op = std::make_shared<GetOp>();
  op->key = std::move(key);
  op->callback = std::move(callback);
  op->offloaded = true;
  op->segment = SegmentOf(op->key);
  m_.gets->Inc();
  m_.fast_gets->Inc();
  const SegmentEntry& e = segtbl_.At(op->segment);
  // Fixed offload-engine latency, then straight to the device read; no
  // op_dispatch charge and no core queueing.
  sim_.Schedule(config_.offload_engine_ns,
                [this, op, ssd = e.ssd, off = e.offset] {
                  GetReadBucket(op, ssd, off, 1);
                });
}

void DataStore::GetLookup(std::shared_ptr<GetOp> op) {
  op->segment = SegmentOf(op->key);
  const SegmentEntry& e = segtbl_.At(op->segment);
  if (e.Empty()) {
    GetFinish(op, Status::NotFound(), {});
    return;
  }
  GetReadBucket(op, e.ssd, e.offset, e.chain_len);
}

void DataStore::GetReadBucket(std::shared_ptr<GetOp> op, uint8_t ssd,
                              uint64_t offset, uint8_t remaining_chain) {
  const LogSet& logs = log_sets_.at(ssd);
  m_.ssd_reads->Inc();
  logs.key_log->Read(offset, config_.bucket_size, [this, op, remaining_chain](
                                                      log::ReadResult r) {
    if (!r.status.ok()) {
      // Compaction may have reclaimed this region between our SegTbl probe
      // and the device read; the re-lookup sees the relocated chain.
      GetRetry(op);
      return;
    }
    auto bucket = DecodeBucket(r.data, 0, config_.bucket_size);
    if (!bucket.ok()) {
      GetFinish(op, bucket.status(), {});
      return;
    }
    GetSearch(op, std::move(bucket).value(), remaining_chain);
  });
}

void DataStore::GetSearch(std::shared_ptr<GetOp> op, Bucket bucket,
                          uint8_t remaining_chain) {
  uint64_t scan_cycles =
      config_.costs.bucket_parse_per_item * std::max<size_t>(1, bucket.items.size());
  RunGetWork(op, scan_cycles, [this, op, b = std::move(bucket),
                               remaining_chain]() mutable {
    if (b.header.segment_id != op->segment) {
      // Stale read of a reclaimed-and-rewritten region.
      GetRetry(op);
      return;
    }
    if (auto idx = b.Find(op->key)) {
      const KeyItem& item = b.items[*idx];
      if (item.IsTombstone()) {
        GetFinish(op, Status::NotFound(), {});
      } else {
        GetReadValue(op, item);
      }
      return;
    }
    if (remaining_chain <= 1) {
      GetFinish(op, Status::NotFound(), {});
      return;
    }
    m_.get_chain_extra_reads->Inc();
    if (b.header.contiguous) {
      GetReadRest(op, b.header.prev_ssd, b.header.prev_offset,
                  static_cast<uint8_t>(remaining_chain - 1));
    } else {
      GetReadBucket(op, b.header.prev_ssd, b.header.prev_offset,
                    static_cast<uint8_t>(remaining_chain - 1));
    }
  });
}

void DataStore::GetReadRest(std::shared_ptr<GetOp> op, uint8_t ssd,
                            uint64_t offset, uint8_t count) {
  const LogSet& logs = log_sets_.at(ssd);
  m_.ssd_reads->Inc();
  uint64_t bytes = static_cast<uint64_t>(count) * config_.bucket_size;
  logs.key_log->Read(offset, bytes, [this, op, count](log::ReadResult r) {
    if (!r.status.ok()) {
      GetRetry(op);
      return;
    }
    // Parse all buckets of the contiguous remainder and search newest-first.
    std::vector<Bucket> buckets;
    buckets.reserve(count);
    for (uint8_t i = 0; i < count; ++i) {
      auto b = DecodeBucket(r.data, static_cast<size_t>(i) * config_.bucket_size,
                            config_.bucket_size);
      if (!b.ok()) {
        GetFinish(op, b.status(), {});
        return;
      }
      buckets.push_back(std::move(b).value());
    }
    uint64_t items = 0;
    for (const auto& b : buckets) items += b.items.size();
    RunGetWork(op, config_.costs.bucket_parse_per_item * std::max<uint64_t>(1, items),
               [this, op, bs = std::move(buckets)] {
                for (const auto& b : bs) {
                  if (b.header.segment_id != op->segment) {
                    GetRetry(op);
                    return;
                  }
                  if (auto idx = b.Find(op->key)) {
                    const KeyItem& item = b.items[*idx];
                    if (item.IsTombstone()) {
                      GetFinish(op, Status::NotFound(), {});
                    } else {
                      GetReadValue(op, item);
                    }
                    return;
                  }
                }
                GetFinish(op, Status::NotFound(), {});
              });
  });
}

void DataStore::GetReadValue(std::shared_ptr<GetOp> op, const KeyItem& item) {
  auto it = log_sets_.find(item.value_ssd);
  if (it == log_sets_.end()) {
    GetFinish(op, Status::Corruption("item names unknown SSD"), {});
    return;
  }
  uint32_t entry_bytes =
      ValueEntryBytes(static_cast<uint32_t>(op->key.size()), item.value_len);
  m_.ssd_reads->Inc();
  it->second.value_log->Read(item.value_offset, entry_bytes,
                             [this, op](log::ReadResult r) {
    if (!r.status.ok()) {
      GetRetry(op);
      return;
    }
    auto entry = DecodeValueEntry(r.data, 0);
    if (!entry.ok()) {
      GetFinish(op, entry.status(), {});
      return;
    }
    if (entry.value().key != op->key) {
      // The offset was recycled under us (value-log compaction commit race).
      GetRetry(op);
      return;
    }
    GetFinish(op, Status::Ok(), std::move(entry).value().value);
  });
}

void DataStore::GetRetry(std::shared_ptr<GetOp> op) {
  if (++op->attempts > kMaxGetRetries) {
    GetFinish(op, Status::Internal("GET retry budget exhausted"), {});
    return;
  }
  m_.get_retries->Inc();
  if (op->offloaded) {
    // A compaction moved the chain under the offload engine; the retry needs
    // a fresh index consultation, which only the CPU path can do. Demote.
    op->offloaded = false;
    m_.fast_get_aborts->Inc();
  }
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { GetLookup(op); });
}

void DataStore::GetFinish(std::shared_ptr<GetOp> op, Status status,
                          std::vector<uint8_t> value) {
  if (status.IsNotFound()) m_.get_not_found->Inc();
  RunGetWork(op, config_.costs.op_complete,
             [op, st = std::move(status), v = std::move(value)]() mutable {
               op->callback(std::move(st), std::move(v));
             });
}

// ---------------------------------------------------------------------------
// PUT / DEL
// ---------------------------------------------------------------------------

struct DataStore::PutOp {
  std::string key;
  std::vector<uint8_t> value;
  bool is_del = false;
  OpCallback callback;
  uint32_t segment = 0;
  // Join state across the parallel key-log/value-log appends (§3.3).
  int pending_appends = 0;
  Status append_status;
  uint64_t new_offset = 0;
  uint8_t new_chain = 0;
  uint8_t target_ssd = 0;
  // Final value location, for the range-index upsert at commit.
  uint64_t value_offset = 0;
  uint32_t value_len = 0;
};

void DataStore::Put(std::string key, std::vector<uint8_t> value, OpCallback callback) {
  auto op = std::make_shared<PutOp>();
  op->key = std::move(key);
  op->value = std::move(value);
  op->callback = std::move(callback);
  m_.puts->Inc();
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { PutAcquire(op); });
}

void DataStore::Del(std::string key, OpCallback callback) {
  auto op = std::make_shared<PutOp>();
  op->key = std::move(key);
  op->is_del = true;
  op->callback = std::move(callback);
  m_.dels->Inc();
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { PutAcquire(op); });
}

void DataStore::PutAcquire(std::shared_ptr<PutOp> op) {
  op->segment = SegmentOf(op->key);
  if (!TryLockOrWait(op->segment, [this, op] { PutAcquire(op); })) {
    m_.lock_waits->Inc();
    return;
  }
  PutReadHead(op);
}

void DataStore::PutReadHead(std::shared_ptr<PutOp> op) {
  const SegmentEntry& e = segtbl_.At(op->segment);
  if (e.Empty()) {
    if (op->is_del) {
      // Deleting from an empty segment: nothing on flash to mark (and
      // nothing in the ordered view — an empty segment owns no index keys;
      // the erase is defensive).
      range_index_.Erase(op->key);
      PutFinish(op, Status::Ok());
      return;
    }
    PutApply(op, std::nullopt);
    return;
  }
  const LogSet& logs = log_sets_.at(e.ssd);
  m_.ssd_reads->Inc();
  logs.key_log->Read(e.offset, config_.bucket_size, [this, op](log::ReadResult r) {
    if (!r.status.ok()) {
      PutFinish(op, Status::Corruption("head bucket read failed under lock"));
      return;
    }
    auto bucket = DecodeBucket(r.data, 0, config_.bucket_size);
    if (!bucket.ok()) {
      PutFinish(op, bucket.status());
      return;
    }
    PutApply(op, std::move(bucket).value());
  });
}

void DataStore::PutApply(std::shared_ptr<PutOp> op, std::optional<Bucket> head) {
  uint64_t cycles = config_.costs.bucket_build;
  if (head) cycles += config_.costs.bucket_parse_per_item * std::max<size_t>(1, head->items.size());
  if (!op->is_del) {
    cycles += config_.costs.value_build_per_kib * (op->value.size() / 1024 + 1);
  }
  core_.Run(Cycles(cycles), [this, op, h = std::move(head)]() mutable {
    const SegmentEntry& e = segtbl_.At(op->segment);
    const LogSet& target = TargetLogs();
    op->target_ssd = target.ssd_id;

    KeyItem item;
    item.key = op->key;
    if (!op->is_del) {
      item.value_len = static_cast<uint32_t>(op->value.size());
      item.value_ssd = target.ssd_id;
    }

    // --- Validate everything BEFORE issuing any append, so that a failure
    // never leaves one half of the parallel write pair in flight. ---
    const bool in_place = h && h->CanUpsert(config_.bucket_size, item);
    const uint32_t new_len = in_place ? e.chain_len : (h ? e.chain_len : 0) + 1u;
    if (new_len > segtbl_.max_chain()) {
      m_.puts_failed_full->Inc();
      PutFinish(op, Status::OutOfSpace("segment chain at max; compaction lagging"));
      MaybeCompact();
      return;
    }
    const uint64_t value_bytes =
        op->is_del ? 0
                   : ValueEntryBytes(static_cast<uint32_t>(op->key.size()),
                                     static_cast<uint32_t>(op->value.size()));
    if (value_bytes > target.value_log->free_space()) {
      m_.puts_failed_full->Inc();
      PutFinish(op, Status::OutOfSpace("value log full"));
      MaybeCompact();
      return;
    }
    if (config_.bucket_size > target.key_log->free_space()) {
      m_.puts_failed_full->Inc();
      PutFinish(op, Status::OutOfSpace("key log full"));
      MaybeCompact();
      return;
    }

    if (target.ssd_id != home_.ssd_id) m_.swap_puts->Inc();

    // --- Commit point: issue the value append (reserving its offset
    // synchronously — CircularLog bumps the tail at Append time, which is
    // what lets the bucket carry the final value offset while both writes
    // proceed in parallel, §3.3). ---
    if (!op->is_del) {
      ValueEntry entry;
      entry.segment_id = op->segment;
      entry.key = op->key;
      entry.value = std::move(op->value);  // last use of the value
      item.value_offset = target.value_log->tail();
      op->value_offset = item.value_offset;
      op->value_len = item.value_len;
      op->pending_appends++;
      m_.ssd_writes->Inc();
      target.value_log->Append(EncodeValueEntry(entry), [this, op](log::AppendResult r) {
        if (!r.status.ok()) op->append_status = r.status;
        if (--op->pending_appends == 0) PutCommit(op);
      });
    }

    // --- Build the new chain head. ---
    Bucket nb;
    if (in_place) {
      nb = std::move(*h);
      bool ok = nb.Upsert(config_.bucket_size, item);
      (void)ok;
      assert(ok && "CanUpsert validated this");
      // Re-appended head keeps its chain metadata (incl. contiguity of the
      // remainder, which still lives at prev_offset).
    } else {
      nb.header.tag = BucketTag(HashKey(op->key, 0x5e91e57 + config_.store_id));
      nb.header.chain_len = static_cast<uint8_t>(new_len);
      nb.header.position = 0;
      nb.header.contiguous = 0;
      if (h) {
        nb.header.prev_offset = e.offset;
        nb.header.prev_ssd = e.ssd;
      }
      bool ok = nb.Upsert(config_.bucket_size, item);
      (void)ok;
      assert(ok && "a single item must fit an empty bucket");
    }
    op->new_chain = static_cast<uint8_t>(new_len);
    nb.header.segment_id = op->segment;
    nb.header.log_head = static_cast<uint32_t>(target.key_log->head());
    nb.header.log_tail = static_cast<uint32_t>(target.key_log->tail());
    nb.header.owner_store = static_cast<uint8_t>(config_.store_id);

    auto encoded = EncodeBucket(nb, config_.bucket_size);
    if (!encoded.ok()) {
      // Unreachable for well-formed items; surface rather than hide.
      op->append_status = encoded.status();
      if (op->pending_appends == 0) PutFinish(op, encoded.status());
      return;
    }
    op->new_offset = target.key_log->tail();
    op->pending_appends++;
    m_.ssd_writes->Inc();
    target.key_log->Append(std::move(encoded).value(), [this, op](log::AppendResult r) {
      if (!r.status.ok()) op->append_status = r.status;
      if (--op->pending_appends == 0) PutCommit(op);
    });
  });
}

void DataStore::PutCommit(std::shared_ptr<PutOp> op) {
  if (!op->append_status.ok()) {
    PutFinish(op, op->append_status);
    return;
  }
  core_.Run(Cycles(config_.costs.op_complete), [this, op] {
    SegmentEntry& e = segtbl_.At(op->segment);
    e.offset = op->new_offset;
    e.chain_len = op->new_chain;
    e.ssd = op->target_ssd;
    // A segment counts as "swapped" until *all* of its data (chain head and
    // every referenced value) is back on the home SSD; only the compactor's
    // merge-back clears the mark, so swap-region reclaim stays safe even if
    // later PUTs land home while old values still sit on the donor.
    if (op->target_ssd != home_.ssd_id) {
      swapped_segments_.insert(op->segment);
    }
    // Maintain the ordered view at the same commit point that publishes the
    // SegTbl entry, so a scan snapshot taken in any later event sees
    // exactly the committed state.
    if (op->is_del) {
      range_index_.Erase(op->key);
    } else {
      range_index_.Upsert(op->key,
                          {op->target_ssd, op->value_offset, op->value_len});
    }
    PutFinish(op, Status::Ok());
    MaybeCompact();
  });
}

void DataStore::PutFinish(std::shared_ptr<PutOp> op, Status status) {
  UnlockAndPump(op->segment);
  op->callback(std::move(status));
}

// ---------------------------------------------------------------------------
// Locked segment walk, shared by COPY and the range-index rebuild.
// ---------------------------------------------------------------------------

std::vector<KeyItem> MergeChain(const std::vector<Bucket>& chain) {
  std::vector<KeyItem> merged;
  std::set<std::string> seen;
  for (const auto& b : chain) {  // newest-first
    for (const auto& it : b.items) {
      if (!seen.insert(it.key).second) continue;  // shadowed by newer version
      if (it.IsTombstone()) continue;             // delete marker: drop
      merged.push_back(it);
    }
  }
  return merged;
}

struct DataStore::SegmentWalk {
  SegmentVisitor visit;
  OpCallback done;
  uint32_t next_segment = 0;
};

void DataStore::WalkSegments(SegmentVisitor visit, OpCallback done) {
  auto walk = std::make_shared<SegmentWalk>();
  walk->visit = std::move(visit);
  walk->done = std::move(done);
  WalkStep(walk);
}

void DataStore::WalkStep(std::shared_ptr<SegmentWalk> walk) {
  while (walk->next_segment < config_.num_segments &&
         segtbl_.At(walk->next_segment).Empty()) {
    ++walk->next_segment;
  }
  if (walk->next_segment >= config_.num_segments) {
    walk->done(Status::Ok());
    return;
  }
  const uint32_t seg = walk->next_segment;
  if (!TryLockOrWait(seg, [this, walk] { WalkStep(walk); })) return;
  const SegmentEntry& e = segtbl_.At(seg);
  ReadChain(seg, e.ssd, e.offset, e.chain_len,
            [this, walk, seg](Status st, std::vector<Bucket> chain) {
    if (!st.ok()) {
      UnlockAndPump(seg);
      walk->done(st);
      return;
    }
    walk->visit(MergeChain(chain), [this, walk, seg] {
      UnlockAndPump(seg);
      ++walk->next_segment;
      // Yield to the event loop between segments so a walk does not
      // monopolize the store.
      sim_.Schedule(0, [this, walk] { WalkStep(walk); });
    });
  });
}

// ---------------------------------------------------------------------------
// COPY (§3.8): stream live items out, one segment at a time, under the lock.
// ---------------------------------------------------------------------------

struct DataStore::CopyOp {
  std::function<bool(std::string_view)> want;
  ItemSink sink;
  std::vector<KeyItem> live;  // the current segment's wanted items
  size_t value_index = 0;
};

void DataStore::CopyOut(std::function<bool(std::string_view)> want, ItemSink sink,
                        OpCallback done) {
  auto op = std::make_shared<CopyOp>();
  op->want = std::move(want);
  op->sink = std::move(sink);
  WalkSegments(
      [this, op](std::vector<KeyItem> items, std::function<void()> next) {
        op->live.clear();
        for (auto& item : items) {
          if (op->want(item.key)) op->live.push_back(std::move(item));
        }
        op->value_index = 0;
        CopyEmitValues(op, std::move(next));
      },
      std::move(done));
}

void DataStore::CopyEmitValues(std::shared_ptr<CopyOp> op,
                               std::function<void()> next) {
  if (op->value_index >= op->live.size()) {
    next();
    return;
  }
  const KeyItem& item = op->live[op->value_index];
  const LogSet& logs = log_sets_.at(item.value_ssd);
  uint32_t bytes = ValueEntryBytes(static_cast<uint32_t>(item.key.size()),
                                   item.value_len);
  m_.ssd_reads->Inc();
  logs.value_log->Read(item.value_offset, bytes,
                       [this, op, next = std::move(next)](log::ReadResult r) mutable {
    if (r.status.ok()) {
      auto entry = DecodeValueEntry(r.data, 0);
      if (entry.ok()) {
        op->sink(entry.value().key, std::move(entry).value().value);
      }
    }
    ++op->value_index;
    CopyEmitValues(op, std::move(next));
  });
}

// ---------------------------------------------------------------------------
// SCAN (ordered view; DESIGN.md §11): snapshot the range index, then fetch
// value-log entries in bounded steps.
// ---------------------------------------------------------------------------

std::vector<ScanLoc> DataStore::ScanKeys(std::string_view start,
                                         uint32_t limit) const {
  std::vector<ScanLoc> out;
  if (limit == 0) return out;
  out.reserve(limit);
  range_index_.VisitFrom(
      start, [&out, limit](const std::string& key, const RangeIndex::ValueLoc& loc) {
        out.push_back({key, loc.ssd, loc.offset, loc.value_len});
        return out.size() < limit;
      });
  return out;
}

struct DataStore::ScanOp {
  std::vector<ScanLoc> snapshot;
  ScanCallback callback;
  std::vector<ScanItem> items;
  size_t index = 0;     // next snapshot entry to fetch
  uint32_t in_step = 0; // entries fetched since the last yield
};

void DataStore::ScanFetch(std::vector<ScanLoc> snapshot, ScanCallback callback) {
  auto op = std::make_shared<ScanOp>();
  op->snapshot = std::move(snapshot);
  op->callback = std::move(callback);
  m_.scans->Inc();
  op->items.reserve(op->snapshot.size());
  core_.Run(Cycles(config_.costs.op_dispatch), [this, op] { ScanFetchStep(op); });
}

void DataStore::ScanFetchStep(std::shared_ptr<ScanOp> op) {
  if (op->index >= op->snapshot.size()) {
    ScanFinish(op, Status::Ok());
    return;
  }
  if (op->in_step >= kScanStepItems) {
    // Yield so queued point ops interleave with a long scan.
    op->in_step = 0;
    sim_.Schedule(0, [this, op] { ScanFetchStep(op); });
    return;
  }
  op->in_step++;
  const ScanLoc& loc = op->snapshot[op->index];
  auto it = log_sets_.find(loc.value_ssd);
  if (it == log_sets_.end()) {
    // A donor log set this store no longer references: the location is from
    // a reclaimed swap epoch. Treat like any stale location.
    m_.scan_stale_locs->Inc();
    ScanFinish(op, Status::Busy("scan snapshot names unknown SSD"));
    return;
  }
  log::CircularLog* vlog = it->second.value_log;
  uint32_t entry_bytes =
      ValueEntryBytes(static_cast<uint32_t>(loc.key.size()), loc.value_len);
  if (loc.value_offset < vlog->head() ||
      loc.value_offset + entry_bytes > vlog->tail()) {
    // Compaction reclaimed (or is about to rewrite) this location since the
    // snapshot; the caller must re-snapshot.
    m_.scan_stale_locs->Inc();
    ScanFinish(op, Status::Busy("scan location reclaimed under snapshot"));
    return;
  }
  m_.ssd_reads->Inc();
  vlog->Read(loc.value_offset, entry_bytes, [this, op](log::ReadResult r) {
    const ScanLoc& cur = op->snapshot[op->index];
    if (!r.status.ok()) {
      m_.scan_stale_locs->Inc();
      ScanFinish(op, Status::Busy("scan read rejected by log"));
      return;
    }
    auto entry = DecodeValueEntry(r.data, 0);
    if (!entry.ok() || entry.value().key != cur.key) {
      // Offset recycled between validation and completion.
      m_.scan_stale_locs->Inc();
      ScanFinish(op, Status::Busy("scan location recycled under read"));
      return;
    }
    op->items.push_back({cur.key, std::move(entry).value().value});
    op->index++;
    uint64_t parse = config_.costs.bucket_parse_per_item;
    core_.Run(Cycles(parse), [this, op] { ScanFetchStep(op); });
  });
}

void DataStore::ScanFinish(std::shared_ptr<ScanOp> op, Status status) {
  core_.Run(Cycles(config_.costs.op_complete),
            [this, op, st = std::move(status)]() mutable {
              if (st.ok()) m_.scan_items->Add(op->items.size());
              op->callback(std::move(st), std::move(op->items));
            });
}

// ---------------------------------------------------------------------------
// Range-index rebuild (recovery's bucket scan; torture-test oracle).
// ---------------------------------------------------------------------------

void DataStore::RebuildRangeIndex(RangeIndex* out,
                                  std::function<void(Status, uint64_t)> done) {
  RangeIndex* index = out ? out : &range_index_;
  index->Clear();
  auto live_items = std::make_shared<uint64_t>(0);
  WalkSegments(
      [index, live_items](std::vector<KeyItem> items, std::function<void()> next) {
        for (const auto& it : items) {
          index->Upsert(it.key, {it.value_ssd, it.value_offset, it.value_len});
        }
        *live_items += items.size();
        next();
      },
      [live_items, done = std::move(done)](Status st) { done(st, *live_items); });
}

void DataStore::RepairIndexLocation(const std::string& key,
                                    const RangeIndex::ValueLoc& from,
                                    const RangeIndex::ValueLoc& to) {
  range_index_.Repair(key, from, to);
}

// ---------------------------------------------------------------------------
// Chain reader shared with the compactor.
// ---------------------------------------------------------------------------

struct DataStore::ChainRead {
  uint32_t segment_id = 0;
  std::vector<Bucket> buckets;  // newest-first
  ChainCallback cb;
};

void DataStore::ReadChain(uint32_t segment_id, uint8_t ssd, uint64_t offset,
                          uint8_t chain_len, ChainCallback cb) {
  if (chain_len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  auto read = std::make_shared<ChainRead>();
  read->segment_id = segment_id;
  read->cb = std::move(cb);
  ReadChainFrom(read, ssd, offset, chain_len);
}

void DataStore::ReadChainFrom(std::shared_ptr<ChainRead> read, uint8_t ssd,
                              uint64_t offset, uint8_t remaining) {
  const LogSet& logs = log_sets_.at(ssd);
  m_.ssd_reads->Inc();
  logs.key_log->Read(offset, config_.bucket_size, [this, read,
                                                   remaining](log::ReadResult r) {
    if (!r.status.ok()) {
      read->cb(r.status, {});
      return;
    }
    auto b = DecodeBucket(r.data, 0, config_.bucket_size);
    if (!b.ok()) {
      read->cb(b.status(), {});
      return;
    }
    Bucket bucket = std::move(b).value();
    if (bucket.header.segment_id != read->segment_id) {
      read->cb(Status::Corruption("chain walk hit foreign bucket"), {});
      return;
    }
    BucketHeader hdr = bucket.header;
    read->buckets.push_back(std::move(bucket));
    if (remaining <= 1) {
      read->cb(Status::Ok(), std::move(read->buckets));
      return;
    }
    if (!hdr.contiguous) {
      ReadChainFrom(read, hdr.prev_ssd, hdr.prev_offset,
                    static_cast<uint8_t>(remaining - 1));
      return;
    }
    // One IO for the whole contiguous remainder.
    const LogSet& rest_logs = log_sets_.at(hdr.prev_ssd);
    uint64_t bytes = static_cast<uint64_t>(remaining - 1) * config_.bucket_size;
    m_.ssd_reads->Inc();
    rest_logs.key_log->Read(hdr.prev_offset, bytes, [this, read,
                                                     remaining](log::ReadResult rr) {
      if (!rr.status.ok()) {
        read->cb(rr.status, {});
        return;
      }
      for (uint8_t i = 0; i + 1 < remaining; ++i) {
        auto bb = DecodeBucket(rr.data, static_cast<size_t>(i) * config_.bucket_size,
                               config_.bucket_size);
        if (!bb.ok()) {
          read->cb(bb.status(), {});
          return;
        }
        if (bb.value().header.segment_id != read->segment_id) {
          read->cb(Status::Corruption("contiguous remainder hit foreign bucket"), {});
          return;
        }
        read->buckets.push_back(std::move(bb).value());
      }
      read->cb(Status::Ok(), std::move(read->buckets));
    });
  });
}

// ---------------------------------------------------------------------------
// Compaction entry points (implementation in compaction.cc).
// ---------------------------------------------------------------------------

bool DataStore::MaybeCompact() { return compactor_->MaybeStart(); }
bool DataStore::compaction_running() const { return compactor_->running(); }
void DataStore::ForceKeyCompaction(OpCallback done) {
  compactor_->StartKey(std::move(done));
}
void DataStore::ForceValueCompaction(OpCallback done) {
  compactor_->StartValue(std::move(done));
}

}  // namespace leed::store
