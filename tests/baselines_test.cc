// Tests for the FAWN and KVell baseline stores and the executor that drives
// them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/executor.h"
#include "baselines/fawn_store.h"
#include "baselines/kvell_store.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace leed::baselines {
namespace {

using testutil::SyncDel;
using testutil::SyncGet;
using testutil::SyncPut;
using testutil::TestValue;

// ---------------------------------------------------------------------------
// FAWN store
// ---------------------------------------------------------------------------

class FawnTest : public ::testing::Test {
 protected:
  FawnTest() : device_(sim_, 64 << 20, 512), core_(sim_, 1.4) {}

  std::unique_ptr<FawnStore> MakeStore(FawnConfig cfg = {}) {
    return std::make_unique<FawnStore>(sim_, core_, device_, 0, 16 << 20, cfg);
  }

  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::CpuCore core_;
};

TEST_F(FawnTest, PutGetDelRoundTrip) {
  auto st = MakeStore();
  ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(1, 100)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *st, "k", &out).ok());
  EXPECT_EQ(out, TestValue(1, 100));
  ASSERT_TRUE(SyncDel(sim_, *st, "k").ok());
  EXPECT_TRUE(SyncGet(sim_, *st, "k").IsNotFound());
}

TEST_F(FawnTest, SingleSsdAccessPerOp) {
  auto st = MakeStore();
  ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(1, 100)).ok());
  auto r0 = st->stats().ssd_reads;
  auto w0 = st->stats().ssd_writes;
  ASSERT_TRUE(SyncGet(sim_, *st, "k").ok());
  EXPECT_EQ(st->stats().ssd_reads - r0, 1u);   // FAWN's signature 1-IO GET
  ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(2, 100)).ok());
  EXPECT_EQ(st->stats().ssd_writes - w0, 1u);  // 1-IO PUT
}

TEST_F(FawnTest, OverwriteReturnsNewest) {
  auto st = MakeStore();
  ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(1, 50)).ok());
  ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(2, 70)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *st, "k", &out).ok());
  EXPECT_EQ(out, TestValue(2, 70));
}

TEST_F(FawnTest, QueueSerializesAtMaxInflight) {
  FawnConfig cfg;
  cfg.max_inflight = 1;
  auto st = MakeStore(cfg);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    st->Put("k" + std::to_string(i), TestValue(i, 32), [&](Status s) {
      EXPECT_TRUE(s.ok());
      ++done;
    });
  }
  EXPECT_GT(st->queue_depth(), 0u);
  sim_.Run();
  EXPECT_EQ(done, 10);
}

TEST_F(FawnTest, CleaningReclaimsAndPreservesData) {
  FawnConfig cfg;
  cfg.max_inflight = 4;
  cfg.compaction_threshold = 0.5;
  cfg.compaction_chunk = 64 * 1024;
  auto st = std::make_unique<FawnStore>(sim_, core_, device_, 0, 64 << 10, cfg);
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 16; ++i) {
      Status s = SyncPut(sim_, *st, "key" + std::to_string(i), TestValue(round, 128));
      ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
    }
  }
  sim_.Run();
  EXPECT_GT(st->stats().cleanings, 0u);
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(SyncGet(sim_, *st, "key" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, TestValue(39, 128));
  }
}

// ---------------------------------------------------------------------------
// KVell store
// ---------------------------------------------------------------------------

class KvellTest : public ::testing::Test {
 protected:
  KvellTest() : device_(sim_, 64 << 20, 512), core_(sim_, 3.0) {}

  std::unique_ptr<KvellStore> MakeStore(KvellConfig cfg = {}) {
    return std::make_unique<KvellStore>(sim_, core_, device_, 0, 32 << 20, cfg);
  }

  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::CpuCore core_;
};

TEST_F(KvellTest, PutGetDelRoundTrip) {
  auto st = MakeStore();
  ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(3, 300)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *st, "k", &out).ok());
  EXPECT_EQ(out, TestValue(3, 300));
  ASSERT_TRUE(SyncDel(sim_, *st, "k").ok());
  EXPECT_TRUE(SyncGet(sim_, *st, "k").IsNotFound());
}

TEST_F(KvellTest, InPlaceUpdateReusesSlot) {
  auto st = MakeStore();
  ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(1, 200)).ok());
  uint64_t slots_after_first = st->stats().slots_allocated;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *st, "k", TestValue(i, 200)).ok());
  }
  EXPECT_EQ(st->stats().slots_allocated, slots_after_first);  // no new slots
  std::vector<uint8_t> out;
  ASSERT_TRUE(SyncGet(sim_, *st, "k", &out).ok());
  EXPECT_EQ(out, TestValue(4, 200));
}

TEST_F(KvellTest, DeleteRecyclesSlot) {
  auto st = MakeStore();
  ASSERT_TRUE(SyncPut(sim_, *st, "a", TestValue(1, 100)).ok());
  ASSERT_TRUE(SyncDel(sim_, *st, "a").ok());
  ASSERT_TRUE(SyncPut(sim_, *st, "b", TestValue(2, 100)).ok());
  EXPECT_EQ(st->stats().slots_recycled, 1u);
  EXPECT_EQ(st->slots_in_use(), 1u);
}

TEST_F(KvellTest, ObjectBiggerThanSlabRejected) {
  KvellConfig cfg;
  cfg.slot_bytes = 512;
  auto st = MakeStore(cfg);
  Status s = SyncPut(sim_, *st, "big", TestValue(1, 4096));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(KvellTest, ManyKeysSurviveChurn) {
  auto st = MakeStore();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(SyncPut(sim_, *st, "key" + std::to_string(i), TestValue(i, 120)).ok());
  }
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE(SyncDel(sim_, *st, "key" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> out;
    Status s = SyncGet(sim_, *st, "key" + std::to_string(i), &out);
    if (i % 2 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << i;
    } else {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(out, TestValue(i, 120));
    }
  }
  EXPECT_EQ(st->index().size(), 100u);
}

// ---------------------------------------------------------------------------
// BaselineExecutor
// ---------------------------------------------------------------------------

TEST(BaselineExecutorTest, RoutesThroughStorageServiceInterface) {
  sim::Simulator sim;
  sim::CpuModel cpu(sim, 4, 1.4);
  BaselineConfig cfg;
  cfg.kind = BaselineKind::kFawn;
  cfg.ssd_count = 1;
  cfg.stores_per_ssd = 2;
  cfg.ssd = sim::PiSdCardSpec();
  cfg.ssd.latency_jitter = 0;
  cfg.ssd.slow_io_prob = 0;
  BaselineExecutor exec(sim, cpu, cfg, 7);
  EXPECT_EQ(exec.num_stores(), 2u);
  EXPECT_EQ(exec.ssd_of_store(1), 0u);

  bool done = false;
  engine::Request req;
  req.type = engine::OpType::kPut;
  req.key = "hello";
  req.value = testutil::TestValue(1, 64);
  req.store_id = 1;
  req.callback = [&](Status st, std::vector<uint8_t>, engine::ResponseMeta meta) {
    EXPECT_TRUE(st.ok());
    EXPECT_GT(meta.available_tokens, 0u);
    done = true;
  };
  exec.Submit(std::move(req));
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(exec.stats().completed, 1u);
}

TEST(BaselineExecutorTest, KvellKindBuildsKvellStores) {
  sim::Simulator sim;
  sim::CpuModel cpu(sim, 8, 2.3);
  BaselineConfig cfg;
  cfg.kind = BaselineKind::kKvell;
  cfg.ssd_count = 2;
  cfg.stores_per_ssd = 2;
  cfg.ssd = sim::Dct983Spec();
  cfg.ssd.capacity_bytes = 1ull << 30;
  cfg.kvell.ipc_factor = 2.6;
  BaselineExecutor exec(sim, cpu, cfg, 7);

  bool done = false;
  engine::Request put;
  put.type = engine::OpType::kPut;
  put.key = "k";
  put.value = testutil::TestValue(2, 256);
  put.store_id = 3;
  put.callback = [&](Status st, std::vector<uint8_t>, engine::ResponseMeta) {
    EXPECT_TRUE(st.ok());
    done = true;
  };
  exec.Submit(std::move(put));
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(exec.kvell(3).index().size(), 1u);
}

}  // namespace
}  // namespace leed::baselines
