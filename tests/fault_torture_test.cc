// Crash-consistency torture harness (docs/FAULTS.md).
//
// Engine level: enumerate crash points at every device-IO boundary of a
// scripted workload — the k-th IO persists only a random strict prefix and
// everything after it is black-holed, exactly like power loss — then
// restart the engine over the surviving device contents, run superblock +
// extended-scan recovery, and check the durability contract:
//
//   * acked => durable: every operation whose callback fired before the
//     crash is fully visible after recovery;
//   * unacked => cleanly absent (or, for the single in-flight operation,
//     atomically applied): the one op whose callback never fired may land
//     in either its before or after state, never anything else.
//
// Cluster level: a 3-node chain-replicated cluster takes a link partition
// that heals plus a tail-node power-loss crash and restart; every PUT a
// client saw acknowledged must still be readable afterwards.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/io_engine.h"
#include "leed/cluster_sim.h"
#include "sim/cpu_model.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "sim/ssd_model.h"
#include "store/superblock.h"
#include "test_util.h"

namespace leed {
namespace {

using engine::EngineConfig;
using engine::IoEngine;
using engine::OpType;
using engine::Request;

// ---------------------------------------------------------------------------
// Fault-plan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesFullGrammar) {
  auto r = sim::ParseFaultPlan(
      "dev:read_err=0.01,write_err=0.02,fail_read_at=5,spike_p=0.1,spike_x=8,"
      "torn=1,crash_at_io=33,node=2,ssd=1;"
      "net:drop=0.001,dup=0.002,delay_p=0.03,delay_us=250;"
      "part:a=0,b=1,at_ms=20,heal_ms=60,oneway=1;"
      "crash:node=2,at_ms=50,restart_ms=120");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const sim::FaultPlan& plan = r.value();
  ASSERT_EQ(plan.devices.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.devices[0].spec.read_error_rate, 0.01);
  EXPECT_EQ(plan.devices[0].spec.fail_read_at, 5u);
  EXPECT_TRUE(plan.devices[0].spec.torn_writes);
  EXPECT_EQ(plan.devices[0].spec.crash_at_io, 33u);
  EXPECT_EQ(plan.devices[0].node, 2);
  EXPECT_EQ(plan.devices[0].ssd, 1);
  EXPECT_TRUE(plan.has_net);
  EXPECT_EQ(plan.net.delay_ns, 250u * kMicrosecond);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_FALSE(plan.partitions[0].bidirectional);
  EXPECT_EQ(plan.partitions[0].start, 20u * kMillisecond);
  EXPECT_EQ(plan.partitions[0].heal, 60u * kMillisecond);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].node, 2u);
  EXPECT_EQ(plan.crashes[0].restart, 120u * kMillisecond);
}

TEST(FaultPlanTest, RejectsMalformedInput) {
  EXPECT_FALSE(sim::ParseFaultPlan("dev").ok());             // missing ':'
  EXPECT_FALSE(sim::ParseFaultPlan("dev:read_err").ok());    // missing '='
  EXPECT_FALSE(sim::ParseFaultPlan("dev:read_err=x").ok());  // bad number
  EXPECT_FALSE(sim::ParseFaultPlan("dev:bogus=1").ok());     // unknown key
  EXPECT_FALSE(sim::ParseFaultPlan("gpu:oops=1").ok());      // unknown kind
  EXPECT_FALSE(sim::ParseFaultPlan("dev:dead_at=x").ok());   // bad number
  EXPECT_FALSE(sim::ParseFaultPlan("dev:dead_after_ms=oops").ok());
  auto empty = sim::ParseFaultPlan("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().Empty());
}

TEST(FaultPlanTest, ParsesPermanentDeviceDeath) {
  // dead_at: the device dies at its N-th IO. dead_after_ms: a timer kills
  // it outright (ClusterSim arms FaultInjector::KillDevice at that offset).
  auto r = sim::ParseFaultPlan(
      "dev:dead_at=120,node=1,ssd=0;dev:dead_after_ms=15.5,node=2,ssd=1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const sim::FaultPlan& plan = r.value();
  ASSERT_EQ(plan.devices.size(), 2u);
  EXPECT_EQ(plan.devices[0].spec.dead_at, 120u);
  EXPECT_EQ(plan.devices[0].node, 1);
  EXPECT_EQ(plan.devices[0].dead_after, 0);
  EXPECT_EQ(plan.devices[1].spec.dead_at, 0u);
  EXPECT_EQ(plan.devices[1].dead_after,
            static_cast<SimTime>(15.5 * kMillisecond));
  EXPECT_EQ(plan.devices[1].ssd, 1);
}

// ---------------------------------------------------------------------------
// Engine-level crash-point enumeration
// ---------------------------------------------------------------------------

// The scripted workload: 60 sequential operations over 12 keys, every 7th
// a DEL, values sized to exercise multiple value-log blocks. Small segment
// count + tiny logs force real compaction runs inside the script, so crash
// points land inside merges and checkpoint writes too.
struct ScriptOp {
  OpType type;
  std::string key;
  std::vector<uint8_t> value;
};

std::vector<ScriptOp> BuildScript() {
  std::vector<ScriptOp> ops;
  for (int i = 0; i < 60; ++i) {
    std::string key = "tk" + std::to_string(i % 12);
    if (i % 7 == 6) {
      ops.push_back({OpType::kDel, key, {}});
    } else {
      ops.push_back(
          {OpType::kPut, key, testutil::TestValue(i, 64 + (i % 5) * 37)});
    }
  }
  return ops;
}

EngineConfig TortureEngine() {
  EngineConfig cfg;
  cfg.ssd_count = 1;
  cfg.stores_per_ssd = 1;
  cfg.ssd = sim::Dct983Spec();
  cfg.ssd.capacity_bytes = 8ull << 20;
  cfg.ssd.latency_jitter = 0;  // deterministic timing per crash point
  cfg.ssd.slow_io_prob = 0;
  cfg.store_template.num_segments = 8;
  cfg.store_template.bucket_size = 512;
  cfg.store_template.compaction_threshold = 0.5;
  cfg.partition_bytes = store::kSuperblockRegionBytes + 192 * 1024;
  cfg.wait_queue_capacity = 64;
  cfg.enable_data_swap = false;
  cfg.checkpoint_period = 2 * kMillisecond;  // several rounds inside the script
  return cfg;
}

// What the application layer knows at the moment of the crash.
struct CrashRun {
  // Key -> last acknowledged state (value, or nullopt after an acked DEL).
  std::map<std::string, std::optional<std::vector<uint8_t>>> acked;
  bool hung = false;  // an op's callback never fired (crash mid-op)
  std::string inflight_key;
  std::optional<std::vector<uint8_t>> inflight_applied;
  uint64_t total_ios = 0;
};

// One crash-at-k experiment: fresh simulator, fresh device, fresh engine,
// same seeds everywhere — runs are bit-identical up to the crash point.
class TortureRig {
 public:
  explicit TortureRig(uint64_t crash_at_io)
      : cpu_(sim_, 2, 3.0), injector_(sim_, 0x7717), cfg_(TortureEngine()) {
    ssd_ = std::make_unique<sim::SimSsd>(sim_, cfg_.ssd, 42);
    sim::DeviceFaultSpec spec;
    spec.crash_at_io = crash_at_io;
    faults_ = injector_.AddDevice(spec, /*seed=*/99, /*node=*/0, /*unit=*/0);
    ssd_->set_faults(faults_);
    cfg_.external_ssds = {ssd_.get()};
    engine_ = std::make_unique<IoEngine>(sim_, cpu_, cfg_, /*seed=*/7);
  }

  CrashRun Execute(const std::vector<ScriptOp>& script) {
    CrashRun out;
    for (const ScriptOp& op : script) {
      bool done = false;
      Status st = Status::Internal("pending");
      Request req;
      req.type = op.type;
      req.key = op.key;
      req.value = op.value;
      req.store_id = 0;
      req.callback = [&](Status s, std::vector<uint8_t>, engine::ResponseMeta) {
        st = std::move(s);
        done = true;
      };
      engine_->Submit(std::move(req));
      testutil::RunUntilFlag(sim_, done);
      if (!done) {
        // The device crashed under this op: its callback will never fire.
        out.hung = true;
        out.inflight_key = op.key;
        if (op.type == OpType::kPut) out.inflight_applied = op.value;
        break;
      }
      EXPECT_TRUE(st.ok() || (op.type == OpType::kDel && st.IsNotFound()))
          << op.key << ": " << st.ToString();
      if (op.type == OpType::kPut) {
        out.acked[op.key] = op.value;
      } else {
        out.acked[op.key] = std::nullopt;
      }
    }
    out.total_ios = faults_->ios_seen();
    return out;
  }

  // "Plug the node back in": quiesce the dead engine, revive the device,
  // and bring up a fresh engine that recovers purely from device contents.
  IoEngine& Recover() {
    engine_->Quiesce();
    faults_->set_spec(sim::DeviceFaultSpec{});  // disarm crash_at_io
    faults_->Revive();
    EngineConfig rcfg = cfg_;
    rcfg.checkpoint_period = 0;  // keep the verification read-only
    recovered_ = std::make_unique<IoEngine>(sim_, cpu_, rcfg, /*seed=*/7);
    bool done = false;
    Status st = Status::Internal("pending");
    recovered_->RecoverFromDevices([&](Status s, store::RecoveryStats) {
      st = std::move(s);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    EXPECT_TRUE(done) << "recovery never completed";
    EXPECT_TRUE(st.ok()) << st.ToString();
    return *recovered_;
  }

  // Post-recovery GET through the fresh engine.
  std::optional<std::vector<uint8_t>> Lookup(IoEngine& eng,
                                             const std::string& key) {
    Status st = Status::Internal("pending");
    std::vector<uint8_t> value;
    bool done = false;
    Request req;
    req.type = OpType::kGet;
    req.key = key;
    req.store_id = 0;
    req.callback = [&](Status s, std::vector<uint8_t> v, engine::ResponseMeta) {
      st = std::move(s);
      value = std::move(v);
      done = true;
    };
    eng.Submit(std::move(req));
    testutil::RunUntilFlag(sim_, done);
    EXPECT_TRUE(done);
    EXPECT_TRUE(st.ok() || st.IsNotFound()) << key << ": " << st.ToString();
    if (!st.ok()) return std::nullopt;
    return value;
  }

  sim::Simulator sim_;
  sim::CpuModel cpu_;
  sim::FaultInjector injector_;
  EngineConfig cfg_;
  std::unique_ptr<sim::SimSsd> ssd_;
  sim::DeviceFaults* faults_ = nullptr;
  std::unique_ptr<IoEngine> engine_;
  std::unique_ptr<IoEngine> recovered_;
};

void VerifyInvariants(TortureRig& rig, IoEngine& recovered,
                      const std::vector<ScriptOp>& script,
                      const CrashRun& run) {
  std::set<std::string> keys;
  for (const ScriptOp& op : script) keys.insert(op.key);
  for (const std::string& key : keys) {
    auto got = rig.Lookup(recovered, key);
    auto it = run.acked.find(key);
    std::optional<std::vector<uint8_t>> expect =
        it == run.acked.end() ? std::nullopt : it->second;
    if (run.hung && key == run.inflight_key) {
      // The single in-flight op may have landed or not — but nothing else.
      EXPECT_TRUE(got == expect || got == run.inflight_applied)
          << key << ": recovered to neither the pre- nor post-crash state";
    } else {
      EXPECT_EQ(got.has_value(), expect.has_value())
          << key << (expect ? " lost an acked write" : " resurrected");
      if (got && expect) {
        EXPECT_EQ(*got, *expect) << key << " recovered a stale value";
      }
    }
  }
}

TEST(FaultTortureTest, AckedImpliesDurableAtEveryCrashPoint) {
  const std::vector<ScriptOp> script = BuildScript();

  // Dry run (no faults) fixes the IO count; runs are deterministic, so the
  // k-th IO of every crash run is the same IO the dry run issued k-th.
  TortureRig dry(0);
  CrashRun base = dry.Execute(script);
  ASSERT_FALSE(base.hung);
  ASSERT_EQ(base.acked.size(), 12u);
  const uint64_t n = base.total_ios;
  ASSERT_GE(n, 100u) << "script too small to enumerate crash points";

  const uint64_t step = std::max<uint64_t>(1, (n + 59) / 60);
  int points = 0;
  for (uint64_t k = 1; k <= n; k += step) {
    SCOPED_TRACE("crash_at_io=" + std::to_string(k));
    TortureRig rig(k);
    CrashRun run = rig.Execute(script);
    IoEngine& recovered = rig.Recover();
    VerifyInvariants(rig, recovered, script, run);
    ++points;
  }
  EXPECT_GE(points, 50) << "harness must enumerate at least 50 crash points";
}

// ---------------------------------------------------------------------------
// Range-index recovery identity: crash mid-scan / mid-compaction-with-scans
// ---------------------------------------------------------------------------

// Engine-level SCAN with the snapshot pre-resolved the way the node layer
// does it. Returns true if the scan's callback fired before the simulator
// drained (a crash mid-scan may leave it hung — both are acceptable).
bool SubmitScan(sim::Simulator& sim, IoEngine& eng, uint32_t limit) {
  Request req;
  req.type = OpType::kScan;
  req.store_id = 0;
  req.scan_limit = limit;
  req.scan_snapshot = eng.ScanSnapshot(0, "", limit);
  bool done = false;
  req.scan_callback = [&](Status, std::vector<store::ScanItem>,
                          engine::ResponseMeta) { done = true; };
  eng.Submit(std::move(req));
  testutil::RunUntilFlag(sim, done);
  return done;
}

// The recovery contract under test: the range index the recovered store
// rebuilt during its bucket scan must agree byte-for-byte with an index
// rebuilt fresh from the recovered SegTbl — no entry stranded by the
// crashed scan or the crashed compaction survives into either.
void ExpectRecoveredIndexMatchesFreshRebuild(sim::Simulator& sim,
                                             IoEngine& recovered) {
  store::DataStore& ds = recovered.data_store(0);
  const std::string recovered_dump = ds.range_index().DebugDump();
  store::RangeIndex fresh;
  bool done = false;
  Status st = Status::Internal("pending");
  ds.RebuildRangeIndex(&fresh,
                       [&](Status s, uint64_t) {
                         st = std::move(s);
                         done = true;
                       });
  testutil::RunUntilFlag(sim, done);
  ASSERT_TRUE(done) << "rebuild never completed";
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(recovered_dump, fresh.DebugDump())
      << "recovered range index diverges from a fresh bucket scan";
}

TEST(FaultTortureTest, RangeIndexSurvivesCrashMidScan) {
  const std::vector<ScriptOp> script = BuildScript();

  // Dry run: IO count at script end and after one full scan; crash points
  // in (script_ios, scan_ios] land inside the scan's value fetches.
  TortureRig dry(0);
  CrashRun base = dry.Execute(script);
  ASSERT_FALSE(base.hung);
  const uint64_t script_ios = base.total_ios;
  ASSERT_TRUE(SubmitScan(dry.sim_, *dry.engine_, 16));
  const uint64_t scan_ios = dry.faults_->ios_seen();
  ASSERT_GT(scan_ios, script_ios) << "scan issued no device IOs";

  for (uint64_t k = script_ios + 1; k <= scan_ios; ++k) {
    SCOPED_TRACE("crash_at_io=" + std::to_string(k));
    TortureRig rig(k);
    CrashRun run = rig.Execute(script);
    ASSERT_FALSE(run.hung);
    (void)SubmitScan(rig.sim_, *rig.engine_, 16);  // dies mid-flight
    IoEngine& recovered = rig.Recover();
    VerifyInvariants(rig, recovered, script, run);
    ExpectRecoveredIndexMatchesFreshRebuild(rig.sim_, recovered);
  }
}

TEST(FaultTortureTest, RangeIndexSurvivesCrashMidCompactionWithScans) {
  const std::vector<ScriptOp> script = BuildScript();

  // Dry run: measure the IO span of a forced value compaction interleaved
  // with a scan, so every crash point lands inside that interleaving.
  TortureRig dry(0);
  CrashRun base = dry.Execute(script);
  ASSERT_FALSE(base.hung);
  const uint64_t script_ios = base.total_ios;
  bool compacted = false;
  dry.engine_->data_store(0).ForceValueCompaction(
      [&](Status) { compacted = true; });
  ASSERT_TRUE(SubmitScan(dry.sim_, *dry.engine_, 16));
  testutil::RunUntilFlag(dry.sim_, compacted);
  ASSERT_TRUE(compacted);
  const uint64_t busy_ios = dry.faults_->ios_seen();
  ASSERT_GT(busy_ios, script_ios) << "compaction+scan issued no device IOs";

  const uint64_t span = busy_ios - script_ios;
  const uint64_t step = std::max<uint64_t>(1, span / 24);
  for (uint64_t k = script_ios + 1; k <= busy_ios; k += step) {
    SCOPED_TRACE("crash_at_io=" + std::to_string(k));
    TortureRig rig(k);
    CrashRun run = rig.Execute(script);
    ASSERT_FALSE(run.hung);
    bool comp_done = false;
    rig.engine_->data_store(0).ForceValueCompaction(
        [&](Status) { comp_done = true; });
    (void)SubmitScan(rig.sim_, *rig.engine_, 16);  // interleaves, then dies
    testutil::RunUntilFlag(rig.sim_, comp_done);
    IoEngine& recovered = rig.Recover();
    VerifyInvariants(rig, recovered, script, run);
    ExpectRecoveredIndexMatchesFreshRebuild(rig.sim_, recovered);
  }
}

// ---------------------------------------------------------------------------
// Cluster-level: partition + tail crash, zero acked-write loss
// ---------------------------------------------------------------------------

ClusterConfig TortureCluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_clients = 1;
  cfg.seed = testutil::TestSeed(0xfa17);

  cfg.node.platform = sim::StingrayJbof();
  cfg.node.stack = StackKind::kLeed;
  cfg.node.engine.ssd_count = 2;
  cfg.node.engine.stores_per_ssd = 2;
  cfg.node.engine.ssd = sim::Dct983Spec();
  cfg.node.engine.ssd.capacity_bytes = 1ull << 30;
  cfg.node.engine.ssd.latency_jitter = 0;
  cfg.node.engine.ssd.slow_io_prob = 0;
  cfg.node.engine.store_template.num_segments = 512;
  cfg.node.engine.store_template.bucket_size = 512;
  cfg.node.engine.checkpoint_period = 5 * kMillisecond;

  cfg.client.stores_per_ssd = 2;
  cfg.client.request_timeout = 10 * kMillisecond;

  cfg.control_plane.replication_factor = 3;
  cfg.control_plane.heartbeat_period = 5 * kMillisecond;
  cfg.control_plane.failure_timeout = 25 * kMillisecond;
  return cfg;
}

TEST(FaultTortureClusterTest, NoAckedWriteLostAcrossPartitionAndTailCrash) {
  ClusterSim cluster(TortureCluster());
  cluster.Bootstrap();

  // Partition nodes 0<->1 at 5ms (heals at 40ms) and power-cut node 2 at
  // 10ms (restarts, recovers from its SSDs, and rejoins at 80ms).
  auto plan = sim::ParseFaultPlan(
      "part:a=0,b=1,at_ms=5,heal_ms=40;"
      "crash:node=2,at_ms=10,restart_ms=80");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  cluster.ArmFaultPlan(plan.value());

  // Sequential unique-key PUTs straight through the fault window. Only
  // acknowledged writes go into the ledger; timeouts/errors are expected
  // while links are cut or the tail is down.
  sim::Simulator& sim = cluster.simulator();
  std::map<std::string, std::vector<uint8_t>> ledger;
  int attempts = 0;
  while (sim.Now() < 150 * kMillisecond && attempts < 4000) {
    std::string key = "fk" + std::to_string(attempts);
    std::vector<uint8_t> value = testutil::TestValue(1000 + attempts, 128);
    ++attempts;
    bool done = false;
    Status st = Status::Internal("pending");
    cluster.client(0).Put(key, value, [&](Status s, SimTime) {
      st = std::move(s);
      done = true;
    });
    testutil::RunUntilFlag(sim, done);
    ASSERT_TRUE(done) << "client callback must fire (timeout at worst)";
    if (st.ok()) ledger[key] = std::move(value);
  }
  ASSERT_GT(ledger.size(), 50u) << "workload never got through the faults";

  // Injected faults really happened.
  EXPECT_GT(cluster.faults().counters().net_partition_drops->value(), 0u);
  EXPECT_EQ(cluster.faults().counters().node_crashes->value(), 1u);
  EXPECT_EQ(cluster.faults().counters().node_restarts->value(), 1u);
  EXPECT_FALSE(cluster.node(2).crashed()) << "node 2 should be back up";

  // Let the rejoin transitions drain.
  sim.RunUntil(sim.Now() + 300 * kMillisecond);

  // Zero acked loss: every acknowledged PUT is still readable. A couple of
  // retries tolerate transient Unavailable while views settle.
  for (const auto& [key, value] : ledger) {
    Status st = Status::Internal("pending");
    std::vector<uint8_t> out;
    for (int attempt = 0; attempt < 5; ++attempt) {
      bool done = false;
      cluster.client(0).Get(key,
                            [&](Status s, std::vector<uint8_t> v, SimTime) {
                              st = std::move(s);
                              out = std::move(v);
                              done = true;
                            });
      testutil::RunUntilFlag(sim, done);
      ASSERT_TRUE(done);
      if (st.ok()) break;
      sim.RunUntil(sim.Now() + 20 * kMillisecond);
    }
    ASSERT_TRUE(st.ok()) << "acked write lost: " << key << " -> "
                         << st.ToString();
    EXPECT_EQ(out, value) << key << " recovered a stale value";
  }
}

// ---------------------------------------------------------------------------
// Cluster-level: permanent SSD death mid-workload, vnode-granular failover,
// blank-device replacement, rejoin — zero acked-write loss end to end
// ---------------------------------------------------------------------------

TEST(FaultTortureClusterTest, SsdDeathFailoverAndBlankDeviceRejoin) {
  ClusterConfig cfg = TortureCluster();
  // Tiny segments keep compaction running throughout the write stream, so
  // the device death lands while compaction IO is in flight too.
  cfg.node.engine.store_template.num_segments = 64;
  ClusterSim cluster(cfg);
  cluster.Bootstrap();
  sim::Simulator& sim = cluster.simulator();

  // 10ms: node 2's SSD 0 dies permanently (every IO hard-fails). The
  // engine latch must fail over exactly that SSD's stores — node 2 keeps
  // serving SSD 1. 60ms: the operator pulls the whole node. 80ms: a blank
  // replacement device is installed and the node restarts into a rejoin.
  sim.At(10 * kMillisecond, [&cluster] { cluster.KillSsd(2, 0); });
  sim.At(60 * kMillisecond, [&cluster] { cluster.CrashNode(2); });
  sim.At(80 * kMillisecond, [&cluster] {
    cluster.ReplaceSsd(2, 0);
    cluster.RestartNode(2);
  });

  std::map<std::string, std::vector<uint8_t>> ledger;
  int attempts = 0;
  while (sim.Now() < 150 * kMillisecond && attempts < 4000) {
    std::string key = "dk" + std::to_string(attempts);
    std::vector<uint8_t> value = testutil::TestValue(7000 + attempts, 128);
    ++attempts;
    bool done = false;
    Status st = Status::Internal("pending");
    cluster.client(0).Put(key, value, [&](Status s, SimTime) {
      st = std::move(s);
      done = true;
    });
    testutil::RunUntilFlag(sim, done);
    ASSERT_TRUE(done) << "client callback must fire (timeout at worst)";
    if (st.ok()) ledger[key] = std::move(value);
  }
  ASSERT_GT(ledger.size(), 50u) << "workload never got through the faults";

  // The failure domain was the store, then the node, then healed: the dead
  // device latched (faults.dev.dead), the control plane failed over that
  // SSD's stores vnode-by-vnode (not the whole node), and the rejoin with
  // a blank device abandoned nothing.
  const auto& cp = cluster.control_plane().stats();
  EXPECT_GE(cp.store_failures, 1u) << "SSD death never escalated to failover";
  EXPECT_GT(cp.vnodes_failed_over, 0u);
  EXPECT_EQ(cluster.faults().counters().node_crashes->value(), 1u);
  EXPECT_FALSE(cluster.node(2).crashed()) << "node 2 should be back up";

  // Let the rejoin/backfill transitions drain.
  sim.RunUntil(sim.Now() + 300 * kMillisecond);
  EXPECT_EQ(cluster.control_plane().stats().copies_abandoned, 0u)
      << "recovery abandoned a fill arc: data loss";

  for (const auto& [key, value] : ledger) {
    Status st = Status::Internal("pending");
    std::vector<uint8_t> out;
    for (int attempt = 0; attempt < 5; ++attempt) {
      bool done = false;
      cluster.client(0).Get(key,
                            [&](Status s, std::vector<uint8_t> v, SimTime) {
                              st = std::move(s);
                              out = std::move(v);
                              done = true;
                            });
      testutil::RunUntilFlag(sim, done);
      ASSERT_TRUE(done);
      if (st.ok()) break;
      sim.RunUntil(sim.Now() + 20 * kMillisecond);
    }
    ASSERT_TRUE(st.ok()) << "acked write lost: " << key << " -> "
                         << st.ToString();
    EXPECT_EQ(out, value) << key << " recovered a stale value";
  }
}

}  // namespace
}  // namespace leed
