// Functional tests of the LEED data store: command correctness, chain
// growth, NVMe access counts (the paper's 2/3/2), compaction (key log and
// value log), data swapping, the COPY primitive, and the RangeIndex
// contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "store/compaction.h"
#include "store/data_store.h"
#include "store/range_index.h"
#include "test_util.h"

namespace leed::store {
namespace {

using testutil::SyncDel;
using testutil::SyncGet;
using testutil::SyncPut;
using testutil::TestValue;

class DataStoreTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDeviceBytes = 64ull << 20;
  static constexpr uint32_t kBucketSize = 512;

  DataStoreTest()
      : device_(sim_, kDeviceBytes, 512),
        donor_device_(sim_, kDeviceBytes, 512),
        core_(sim_, 3.0) {}

  StoreConfig SmallConfig() {
    StoreConfig cfg;
    cfg.store_id = 0;
    cfg.home_ssd = 0;
    cfg.num_segments = 64;
    cfg.bucket_size = kBucketSize;
    cfg.chain_bits = 4;
    cfg.compaction_threshold = 0.60;
    cfg.compaction_chunk = 16 * 1024;
    cfg.subcompactions = 4;
    return cfg;
  }

  // Build a store over device_ with generous log sizes.
  std::unique_ptr<DataStore> MakeStore(StoreConfig cfg) {
    key_log_ = std::make_unique<log::CircularLog>(device_, 0, 8 << 20);
    value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 8 << 20);
    LogSet home{0, key_log_.get(), value_log_.get()};
    return std::make_unique<DataStore>(sim_, core_, home, cfg);
  }

  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::MemBlockDevice donor_device_;
  sim::CpuCore core_;
  std::unique_ptr<log::CircularLog> key_log_;
  std::unique_ptr<log::CircularLog> value_log_;
};

TEST_F(DataStoreTest, GetMissingIsNotFound) {
  auto ds = MakeStore(SmallConfig());
  EXPECT_TRUE(SyncGet(sim_, *ds, "nope").IsNotFound());
  EXPECT_EQ(ds->stats().get_not_found, 1u);
}

TEST_F(DataStoreTest, PutThenGetRoundTrips) {
  auto ds = MakeStore(SmallConfig());
  auto value = TestValue(1, 256);
  ASSERT_TRUE(SyncPut(sim_, *ds, "user1", value).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "user1", &out).ok());
  EXPECT_EQ(out, value);
}

TEST_F(DataStoreTest, OverwriteReturnsNewest) {
  auto ds = MakeStore(SmallConfig());
  ASSERT_TRUE(SyncPut(sim_, *ds, "k", TestValue(1, 100)).ok());
  ASSERT_TRUE(SyncPut(sim_, *ds, "k", TestValue(2, 200)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "k", &out).ok());
  EXPECT_EQ(out, TestValue(2, 200));
}

TEST_F(DataStoreTest, DeleteHidesKey) {
  auto ds = MakeStore(SmallConfig());
  ASSERT_TRUE(SyncPut(sim_, *ds, "k", TestValue(1, 64)).ok());
  ASSERT_TRUE(SyncDel(sim_, *ds, "k").ok());
  EXPECT_TRUE(SyncGet(sim_, *ds, "k").IsNotFound());
}

TEST_F(DataStoreTest, DeleteOfMissingKeyIsOkAndCheap) {
  auto ds = MakeStore(SmallConfig());
  uint64_t writes_before = ds->stats().ssd_writes;
  EXPECT_TRUE(SyncDel(sim_, *ds, "ghost").ok());
  EXPECT_EQ(ds->stats().ssd_writes, writes_before);  // no IO for empty segment
}

TEST_F(DataStoreTest, NvmeAccessCountsMatchPaper) {
  // Paper §3.3: GET/PUT/DEL trigger 2/3/2 NVMe accesses in the common case.
  auto ds = MakeStore(SmallConfig());
  // Prime the segment so PUT takes the read-modify path.
  ASSERT_TRUE(SyncPut(sim_, *ds, "key-a", TestValue(1, 64)).ok());

  auto reads0 = ds->stats().ssd_reads;
  auto writes0 = ds->stats().ssd_writes;
  ASSERT_TRUE(SyncPut(sim_, *ds, "key-a", TestValue(2, 64)).ok());
  EXPECT_EQ(ds->stats().ssd_reads - reads0, 1u);   // head bucket read
  EXPECT_EQ(ds->stats().ssd_writes - writes0, 2u); // bucket + value appends

  reads0 = ds->stats().ssd_reads;
  writes0 = ds->stats().ssd_writes;
  ASSERT_TRUE(SyncGet(sim_, *ds, "key-a").ok());
  EXPECT_EQ(ds->stats().ssd_reads - reads0, 2u);   // bucket + value reads
  EXPECT_EQ(ds->stats().ssd_writes - writes0, 0u);

  reads0 = ds->stats().ssd_reads;
  writes0 = ds->stats().ssd_writes;
  ASSERT_TRUE(SyncDel(sim_, *ds, "key-a").ok());
  EXPECT_EQ(ds->stats().ssd_reads - reads0, 1u);   // bucket read
  EXPECT_EQ(ds->stats().ssd_writes - writes0, 1u); // bucket append only
}

TEST_F(DataStoreTest, ManyKeysAllReadable) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 128;
  auto ds = MakeStore(cfg);
  std::map<std::string, std::vector<uint8_t>> truth;
  for (int i = 0; i < 500; ++i) {
    std::string key = "user" + std::to_string(i);
    auto value = TestValue(i, 64 + i % 100);
    ASSERT_TRUE(SyncPut(sim_, *ds, key, value).ok()) << key;
    truth[key] = value;
  }
  for (auto& [key, value] : truth) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, key, &out).ok()) << key;
    EXPECT_EQ(out, value) << key;
  }
}

TEST_F(DataStoreTest, ChainsGrowAndStayReadable) {
  // One segment forces every key into the same chain.
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  cfg.bucket_size = 512;  // ~ (512-32)/(13+7) = 24 items per bucket
  auto ds = MakeStore(cfg);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 32)).ok());
  }
  EXPECT_GT(ds->segments().At(0).chain_len, 1);
  // Keys in older buckets require chain walks.
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "key0", &out).ok());
  EXPECT_EQ(out, TestValue(0, 32));
  EXPECT_GT(ds->stats().get_chain_extra_reads, 0u);
}

TEST_F(DataStoreTest, ChainOverflowReportsOutOfSpace) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  cfg.chain_bits = 2;  // max chain 3
  cfg.compaction_threshold = 1.1;  // never compact
  auto ds = MakeStore(cfg);
  Status last = Status::Ok();
  int i = 0;
  while (last.ok() && i < 500) {
    last = SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 16));
    ++i;
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
  EXPECT_GT(ds->stats().puts_failed_full, 0u);
}

TEST_F(DataStoreTest, KeyCompactionCollapsesChains) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  cfg.compaction_threshold = 1.1;  // manual control
  auto ds = MakeStore(cfg);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 32)).ok());
  }
  uint8_t chain_before = ds->segments().At(0).chain_len;
  ASSERT_GT(chain_before, 1);

  bool done = false;
  ds->ForceKeyCompaction([&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_GT(ds->stats().segments_collapsed, 0u);

  // All keys still readable, and reading the oldest key no longer needs a
  // per-bucket chain walk (the array remainder is one IO).
  for (int i = 0; i < 60; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(out, TestValue(i, 32));
  }
}

TEST_F(DataStoreTest, CompactionReclaimsKeyLogSpace) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 8;
  cfg.compaction_threshold = 1.1;
  cfg.compaction_chunk = 64 * 1024;
  auto ds = MakeStore(cfg);
  // Overwrite the same keys repeatedly: most bucket copies become garbage.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(
          SyncPut(sim_, *ds, "k" + std::to_string(i), TestValue(round, 32)).ok());
    }
  }
  uint64_t used_before = ds->home().key_log->used();
  for (int pass = 0; pass < 4; ++pass) {
    bool done = false;
    ds->ForceKeyCompaction([&](Status) { done = true; });
    testutil::RunUntilFlag(sim_, done);
  }
  EXPECT_LT(ds->home().key_log->used(), used_before);
  // Stale bucket copies (not items) are what overwrites produce here: each
  // key lives in its segment's head bucket, updated in place, so collapse
  // keeps every item but discards all superseded bucket copies.
  EXPECT_GT(ds->stats().segments_collapsed, 0u);
  // Data intact.
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "k" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(19, 32));
  }
}

TEST_F(DataStoreTest, ValueCompactionRelocatesLiveValues) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 8;
  cfg.compaction_threshold = 1.1;
  cfg.compaction_chunk = 32 * 1024;
  auto ds = MakeStore(cfg);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          SyncPut(sim_, *ds, "k" + std::to_string(i), TestValue(round * 100 + i, 200))
              .ok());
    }
  }
  uint64_t vhead_before = ds->home().value_log->head();
  bool done = false;
  ds->ForceValueCompaction([&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_GT(ds->home().value_log->head(), vhead_before);
  EXPECT_EQ(ds->stats().value_compactions, 1u);
  // Every key still returns its newest value after relocation.
  for (int i = 0; i < 12; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "k" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(900 + i, 200));
  }
}

TEST_F(DataStoreTest, AutoCompactionKeepsStoreWritableForever) {
  // Small logs + threshold-triggered compaction: sustained overwrite load
  // must never hit kOutOfSpace.
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_chunk = 16 * 1024;
  key_log_ = std::make_unique<log::CircularLog>(device_, 0, 256 << 10);
  value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 256 << 10);
  LogSet home{0, key_log_.get(), value_log_.get()};
  auto ds = std::make_unique<DataStore>(sim_, core_, home, cfg);

  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 32; ++i) {
      Status st = SyncPut(sim_, *ds, "key" + std::to_string(i),
                          TestValue(round, 128));
      ASSERT_TRUE(st.ok()) << "round " << round << " key " << i << ": "
                           << st.ToString();
    }
  }
  sim_.Run();  // let trailing compactions finish
  EXPECT_GT(ds->stats().key_compactions + ds->stats().value_compactions, 0u);
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(59, 128));
  }
}

TEST_F(DataStoreTest, CompactionAccountingIsPinned) {
  // Golden run: overwrites and deletes until both logs wrap several times,
  // with threshold-triggered key and value compaction. Every figure below
  // is exact for this geometry; a change to any of them is a change in
  // compaction behaviour, not noise.
  StoreConfig cfg = SmallConfig();
  key_log_ = std::make_unique<log::CircularLog>(device_, 0, 256 << 10);
  value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 256 << 10);
  LogSet home{0, key_log_.get(), value_log_.get()};
  auto ds = std::make_unique<DataStore>(sim_, core_, home, cfg);

  constexpr int kKeys = 96;
  constexpr int kRounds = 60;
  std::map<std::string, std::vector<uint8_t>> truth;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      std::string key = "key" + std::to_string(i);
      if ((i + round) % 11 == 0) {
        ASSERT_TRUE(SyncDel(sim_, *ds, key).ok()) << key;
        truth.erase(key);
      } else {
        auto value = TestValue(round * 1000 + i, 64 + (i * 37 + round * 13) % 160);
        ASSERT_TRUE(SyncPut(sim_, *ds, key, value).ok()) << key;
        truth[key] = std::move(value);
      }
    }
  }
  sim_.Run();  // let trailing compactions finish
  EXPECT_FALSE(ds->compaction_running());
  EXPECT_GE(key_log_->tail(), 3 * key_log_->size());
  EXPECT_GE(value_log_->tail(), 3 * value_log_->size());

  const StoreStats s = ds->stats();
  EXPECT_EQ(s.key_compactions, 777u);
  EXPECT_EQ(s.value_compactions, 41u);
  EXPECT_EQ(s.segments_collapsed, 19591u);
  EXPECT_EQ(s.items_live_moved, 37283u);
  EXPECT_EQ(s.items_dropped, 501u);
  EXPECT_EQ(s.prefetch_hits, 789u);
  EXPECT_EQ(s.prefetch_misses, 29u);
  EXPECT_EQ(s.ssd_reads, 28038u);
  EXPECT_EQ(s.ssd_writes, 30409u);
  EXPECT_EQ(key_log_->head(), 12730368u);
  EXPECT_EQ(key_log_->tail(), 12887552u);
  EXPECT_EQ(value_log_->head(), 675136u);
  EXPECT_EQ(value_log_->tail(), 829414u);

  for (int i = 0; i < kKeys; ++i) {
    std::string key = "key" + std::to_string(i);
    std::vector<uint8_t> out;
    Status st = SyncGet(sim_, *ds, key, &out);
    auto it = truth.find(key);
    if (it == truth.end()) {
      EXPECT_TRUE(st.IsNotFound()) << key << ": " << st.ToString();
    } else {
      ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
      EXPECT_EQ(out, it->second) << key;
    }
  }
}

TEST_F(DataStoreTest, ConcurrentOpsOnSameSegmentSerialize) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 1;
  auto ds = MakeStore(cfg);
  int completed = 0;
  // Issue 20 concurrent PUTs to the same segment; the lock bit serializes
  // them and every one must succeed.
  for (int i = 0; i < 20; ++i) {
    ds->Put("key" + std::to_string(i), TestValue(i, 32), [&](Status st) {
      EXPECT_TRUE(st.ok());
      ++completed;
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_GT(ds->stats().lock_waits, 0u);
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(i, 32));
  }
}

TEST_F(DataStoreTest, GetsConcurrentWithCompactionRetryAndSucceed) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 4;
  cfg.compaction_threshold = 1.1;
  auto ds = MakeStore(cfg);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 64)).ok());
  }
  // Fire a compaction and a burst of GETs into the same event window.
  bool compaction_done = false;
  ds->ForceKeyCompaction([&](Status) { compaction_done = true; });
  int got = 0;
  for (int i = 0; i < 64; ++i) {
    ds->Get("key" + std::to_string(i), [&, i](Status st, std::vector<uint8_t> v) {
      EXPECT_TRUE(st.ok()) << "key" << i << ": " << st.ToString();
      if (st.ok()) {
        EXPECT_EQ(v, TestValue(i, 64));
      }
      ++got;
    });
  }
  sim_.Run();
  EXPECT_TRUE(compaction_done);
  EXPECT_EQ(got, 64);
}

TEST_F(DataStoreTest, ValueCompactionWaitsOnSegmentsLockedByPuts) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 8;
  cfg.compaction_threshold = 1.1;  // manual control
  auto ds = MakeStore(cfg);
  constexpr int kKeys = 24;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(SyncPut(sim_, *ds, "k" + std::to_string(i),
                          TestValue(round * 100 + i, 200))
                      .ok());
    }
  }
  const uint64_t vhead_before = ds->home().value_log->head();

  // A burst of in-flight PUTs on the even keys: every one is dispatched
  // before the run's groups try their segment locks, so each segment the
  // burst touches is held, with more PUTs parked behind the holder.
  constexpr int kBurstRounds = 4;
  int puts_done = 0;
  for (int round = 3; round < 3 + kBurstRounds; ++round) {
    for (int i = 0; i < kKeys; i += 2) {
      ds->Put("k" + std::to_string(i), TestValue(round * 100 + i, 200),
              [&](Status st) {
                EXPECT_TRUE(st.ok()) << st.ToString();
                ++puts_done;
              });
    }
  }
  const int burst = kBurstRounds * kKeys / 2;
  bool done = false;
  int puts_done_when_run_ended = -1;
  ds->ForceValueCompaction([&](Status st) {
    EXPECT_TRUE(st.ok()) << st.ToString();
    puts_done_when_run_ended = puts_done;
    done = true;
  });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(ds->compaction_running());
  EXPECT_EQ(puts_done, burst);
  EXPECT_GT(ds->stats().lock_waits, 0u);
  // The run queued behind each burst segment's PUTs, so it could only end
  // once all of them had released their locks.
  EXPECT_EQ(puts_done_when_run_ended, burst);
  EXPECT_GT(ds->home().value_log->head(), vhead_before);
  for (int i = 0; i < kKeys; ++i) {
    const int newest = (i % 2 == 0) ? 2 + kBurstRounds : 2;
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "k" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(out, TestValue(newest * 100 + i, 200)) << i;
  }
}

// ---------------------------------------------------------------------------
// Compaction gate (Fig. 13b inter-compaction co-scheduling)
// ---------------------------------------------------------------------------

TEST_F(DataStoreTest, CompactionGateAdmitsOneRunAcrossStores) {
  auto gate = std::make_shared<CompactionGate>();
  gate->max = 1;
  StoreConfig cfg = SmallConfig();
  cfg.compaction_threshold = 1.1;  // manual control
  cfg.compaction_gate = gate;
  auto first = MakeStore(cfg);
  log::CircularLog second_key(donor_device_, 0, 8 << 20);
  log::CircularLog second_value(donor_device_, 8 << 20, 8 << 20);
  cfg.store_id = 1;
  DataStore second(sim_, core_, LogSet{1, &second_key, &second_value}, cfg);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *first, "a" + std::to_string(i), TestValue(i, 64)).ok());
    ASSERT_TRUE(SyncPut(sim_, second, "b" + std::to_string(i), TestValue(i, 64)).ok());
  }

  bool first_done = false;
  Status first_status = Status::Internal("pending");
  first->ForceKeyCompaction([&](Status st) {
    first_status = st;
    first_done = true;
  });
  ASSERT_TRUE(first->compaction_running());
  EXPECT_EQ(gate->active, 1u);

  // The gate's one slot is taken: the second store is refused at once.
  Status second_status = Status::Internal("pending");
  second.ForceKeyCompaction([&](Status st) { second_status = st; });
  EXPECT_TRUE(second_status.IsBusy()) << second_status.ToString();
  EXPECT_FALSE(second.compaction_running());
  EXPECT_EQ(gate->active, 1u);

  testutil::RunUntilFlag(sim_, first_done);
  ASSERT_TRUE(first_done);
  EXPECT_TRUE(first_status.ok()) << first_status.ToString();
  EXPECT_FALSE(first->compaction_running());
  EXPECT_EQ(gate->active, 0u);

  // With the slot free again the second store's run is admitted.
  bool second_done = false;
  second.ForceKeyCompaction([&](Status st) {
    second_status = st;
    second_done = true;
  });
  EXPECT_EQ(gate->active, 1u);
  testutil::RunUntilFlag(sim_, second_done);
  ASSERT_TRUE(second_done);
  EXPECT_TRUE(second_status.ok()) << second_status.ToString();
  EXPECT_EQ(gate->active, 0u);
}

TEST_F(DataStoreTest, FailedChunkReadReleasesCompactionGate) {
  auto gate = std::make_shared<CompactionGate>();
  gate->max = 1;
  StoreConfig cfg = SmallConfig();
  cfg.compaction_threshold = 1.1;  // manual control
  cfg.compaction_gate = gate;
  sim::FaultInjector injector(sim_, 1);
  sim::DeviceFaults* faults = injector.AddDevice(sim::DeviceFaultSpec{}, 1, 0, 0);
  device_.set_faults(faults);
  auto ds = MakeStore(cfg);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "k" + std::to_string(i), TestValue(i, 64)).ok());
  }
  // The device dies at its next IO: each run's chunk read.
  sim::DeviceFaultSpec dead;
  dead.dead_at = faults->ios_seen() + 1;
  faults->set_spec(dead);

  for (bool key_log : {true, false}) {
    bool done = false;
    Status status = Status::Ok();
    auto cb = [&](Status st) {
      status = st;
      done = true;
    };
    if (key_log) {
      ds->ForceKeyCompaction(cb);
    } else {
      ds->ForceValueCompaction(cb);
    }
    EXPECT_EQ(gate->active, 1u) << key_log;
    testutil::RunUntilFlag(sim_, done);
    ASSERT_TRUE(done) << key_log;
    EXPECT_FALSE(status.ok()) << key_log;
    EXPECT_EQ(gate->active, 0u) << key_log;
    EXPECT_FALSE(ds->compaction_running()) << key_log;
  }
  device_.set_faults(nullptr);
}

// ---------------------------------------------------------------------------
// Data swapping (§3.6)
// ---------------------------------------------------------------------------

class SwapTest : public DataStoreTest {
 protected:
  std::unique_ptr<DataStore> MakeSwappingStore() {
    StoreConfig cfg = SmallConfig();
    cfg.num_segments = 16;
    cfg.compaction_threshold = 1.1;  // manual merge-back
    auto ds = MakeStore(cfg);
    donor_key_ = std::make_unique<log::CircularLog>(donor_device_, 0, 4 << 20);
    donor_value_ = std::make_unique<log::CircularLog>(donor_device_, 4 << 20, 4 << 20);
    ds->AddLogSet(LogSet{1, donor_key_.get(), donor_value_.get()});
    return ds;
  }
  std::unique_ptr<log::CircularLog> donor_key_;
  std::unique_ptr<log::CircularLog> donor_value_;
};

TEST_F(SwapTest, SwappedPutsLandOnDonorAndStayReadable) {
  auto ds = MakeSwappingStore();
  ASSERT_TRUE(SyncPut(sim_, *ds, "home-key", TestValue(1, 64)).ok());

  ds->SetSwapTarget(1);
  ASSERT_TRUE(SyncPut(sim_, *ds, "swapped-key", TestValue(2, 64)).ok());
  EXPECT_GT(ds->stats().swap_puts, 0u);
  EXPECT_GT(ds->swapped_segments(), 0u);
  EXPECT_GT(donor_key_->used(), 0u);
  EXPECT_GT(donor_value_->used(), 0u);

  // Reads follow the SSD id transparently.
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *ds, "swapped-key", &out).ok());
  EXPECT_EQ(out, TestValue(2, 64));
  ASSERT_TRUE(SyncGet(sim_, *ds, "home-key", &out).ok());
  EXPECT_EQ(out, TestValue(1, 64));
}

TEST_F(SwapTest, MergeBackRelocatesEverythingHome) {
  auto ds = MakeSwappingStore();
  ds->SetSwapTarget(1);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *ds, "key" + std::to_string(i), TestValue(i, 64)).ok());
  }
  ASSERT_GT(ds->swapped_segments(), 0u);
  ds->SetSwapTarget(std::nullopt);

  // Merge-back may take several key-compaction runs (kSwapMergePerRun cap).
  for (int pass = 0; pass < 6 && ds->swapped_segments() > 0; ++pass) {
    bool done = false;
    ds->ForceKeyCompaction([&](Status) { done = true; });
    testutil::RunUntilFlag(sim_, done);
  }
  EXPECT_EQ(ds->swapped_segments(), 0u);

  // Everything is home now: donor logs can be discarded and the data must
  // still read back correctly from the home SSD.
  donor_key_->Reset();
  donor_value_->Reset();
  for (int i = 0; i < 24; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *ds, "key" + std::to_string(i), &out).ok()) << i;
    EXPECT_EQ(out, TestValue(i, 64));
  }
}

TEST_F(SwapTest, SwapToUnknownDonorIsIgnored) {
  auto ds = MakeSwappingStore();
  ds->SetSwapTarget(7);  // never registered
  EXPECT_FALSE(ds->swap_target().has_value());
}

// ---------------------------------------------------------------------------
// COPY (§3.8)
// ---------------------------------------------------------------------------

TEST_F(DataStoreTest, CopyOutStreamsLiveFilteredItems) {
  StoreConfig cfg = SmallConfig();
  cfg.num_segments = 16;
  auto ds = MakeStore(cfg);
  std::set<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(SyncPut(sim_, *ds, key, TestValue(i, 48)).ok());
    if (i % 2 == 0) expected.insert(key);
  }
  // Delete a couple of even keys: they must not be copied.
  ASSERT_TRUE(SyncDel(sim_, *ds, "key0").ok());
  expected.erase("key0");

  std::set<std::string> copied;
  bool done = false;
  ds->CopyOut(
      [](std::string_view key) {
        // Filter: even-numbered keys only.
        int n = std::stoi(std::string(key.substr(3)));
        return n % 2 == 0;
      },
      [&](std::string key, std::vector<uint8_t> value) {
        EXPECT_FALSE(value.empty());
        copied.insert(key);
      },
      [&](Status st) {
        EXPECT_TRUE(st.ok());
        done = true;
      });
  testutil::RunUntilFlag(sim_, done);
  ASSERT_TRUE(done);
  EXPECT_EQ(copied, expected);
}

TEST_F(DataStoreTest, CopyOutEmptyStore) {
  auto ds = MakeStore(SmallConfig());
  bool done = false;
  int items = 0;
  ds->CopyOut([](std::string_view) { return true; },
              [&](std::string, std::vector<uint8_t>) { ++items; },
              [&](Status st) {
                EXPECT_TRUE(st.ok());
                done = true;
              });
  testutil::RunUntilFlag(sim_, done);
  EXPECT_TRUE(done);
  EXPECT_EQ(items, 0);
}

// ---------------------------------------------------------------------------
// RangeIndex contract: the ordered (key -> value-log location) map that SCAN,
// recovery and compaction repair drive through DataStore.
// ---------------------------------------------------------------------------

using Loc = RangeIndex::ValueLoc;

std::vector<std::string> KeysFrom(const RangeIndex& idx, std::string_view start,
                                  size_t stop_after = SIZE_MAX) {
  std::vector<std::string> keys;
  idx.VisitFrom(start, [&](const std::string& k, const Loc&) {
    keys.push_back(k);
    return keys.size() < stop_after;
  });
  return keys;
}

TEST(RangeIndexTest, UpsertReportsNewKeysAndOverwrites) {
  RangeIndex idx;
  EXPECT_TRUE(idx.Upsert("b", Loc{0, 10, 4}));
  EXPECT_TRUE(idx.Upsert("a", Loc{1, 20, 5}));
  EXPECT_FALSE(idx.Upsert("b", Loc{2, 30, 6}));  // overwrite, not new
  EXPECT_EQ(idx.size(), 2u);
  ASSERT_TRUE(idx.Find("b").has_value());
  EXPECT_EQ(*idx.Find("b"), (Loc{2, 30, 6}));
  EXPECT_FALSE(idx.Find("c").has_value());
}

TEST(RangeIndexTest, EraseOfMissingKeyReturnsFalse) {
  RangeIndex idx;
  EXPECT_FALSE(idx.Erase("a"));
  idx.Upsert("a", Loc{0, 1, 1});
  EXPECT_TRUE(idx.Erase("a"));
  EXPECT_FALSE(idx.Erase("a"));
  EXPECT_EQ(idx.size(), 0u);
  idx.Upsert("x", Loc{});
  idx.Clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.Find("x").has_value());
}

TEST(RangeIndexTest, VisitFromStartsAtLowerBoundAndStopsOnFalse) {
  RangeIndex idx;
  for (const char* k : {"k10", "k30", "k20", "k40"}) idx.Upsert(k, Loc{});
  EXPECT_EQ(KeysFrom(idx, ""),
            (std::vector<std::string>{"k10", "k20", "k30", "k40"}));
  // A start between two keys begins at the next larger key.
  EXPECT_EQ(KeysFrom(idx, "k25"), (std::vector<std::string>{"k30", "k40"}));
  // An exact start is inclusive.
  EXPECT_EQ(KeysFrom(idx, "k20"),
            (std::vector<std::string>{"k20", "k30", "k40"}));
  // Past the last key visits nothing.
  EXPECT_TRUE(KeysFrom(idx, "k5").empty());
  // The visitor's false return stops the walk after that entry.
  EXPECT_EQ(KeysFrom(idx, "k15", 2), (std::vector<std::string>{"k20", "k30"}));

  std::vector<std::string> all;
  idx.Visit([&](const std::string& k, const Loc&) { all.push_back(k); });
  EXPECT_EQ(all, KeysFrom(idx, ""));
}

TEST(RangeIndexTest, RepairRepointsOnlyOnExactFromMatch) {
  RangeIndex idx;
  const Loc old_loc{0, 100, 8};
  const Loc moved{0, 900, 8};
  idx.Upsert("k", old_loc);
  // A `from` differing in any field means a newer PUT owns the entry.
  EXPECT_FALSE(idx.Repair("k", Loc{1, 100, 8}, moved));
  EXPECT_FALSE(idx.Repair("k", Loc{0, 101, 8}, moved));
  EXPECT_FALSE(idx.Repair("k", Loc{0, 100, 9}, moved));
  EXPECT_EQ(*idx.Find("k"), old_loc);
  EXPECT_FALSE(idx.Repair("missing", old_loc, moved));
  EXPECT_FALSE(idx.Find("missing").has_value());
  EXPECT_TRUE(idx.Repair("k", old_loc, moved));
  EXPECT_EQ(*idx.Find("k"), moved);
}

TEST(RangeIndexTest, DebugDumpEscapesSeparatorsPercentAndDel) {
  RangeIndex idx;
  idx.Upsert("b c", Loc{1, 4096, 100});
  idx.Upsert("a%", Loc{0, 0, 7});
  idx.Upsert(std::string("d\x7f") + "e\n", Loc{3, 1ull << 40, 1});
  idx.Upsert("plain", Loc{2, 12, 34});
  EXPECT_EQ(idx.DebugDump(),
            "a%25 0 0 7\n"
            "b%20c 1 4096 100\n"
            "d%7fe%0a 3 1099511627776 1\n"
            "plain 2 12 34\n");
  EXPECT_EQ(RangeIndex().DebugDump(), "");
}

}  // namespace
}  // namespace leed::store
