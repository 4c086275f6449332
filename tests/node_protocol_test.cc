// Node-level protocol tests: hop-counter verification (NACKs on stale
// views), CRRS shipped-read mechanics, chain-write propagation and
// backward acks, duplicate suppression, and the read route (where each
// GET/SCAN is served, on the CPU path and through the offload filter) —
// driven by hand-crafted wire messages against real Nodes.

#include <gtest/gtest.h>

#include <map>

#include "cluster/wire.h"
#include "leed/node.h"
#include "leed/wire.h"
#include "sim/fault.h"
#include "test_util.h"

namespace leed {
namespace {

class NodeProtocolTest : public ::testing::Test {
 protected:
  NodeProtocolTest() : NodeProtocolTest(/*crrs=*/true, /*offload=*/false) {}
  NodeProtocolTest(bool crrs, bool offload) : net_(sim_) {
    cp_endpoint_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(cp_endpoint_, [](sim::Message) {});  // sink heartbeats

    NodeConfig cfg;
    cfg.platform = sim::StingrayJbof();
    cfg.stack = StackKind::kLeed;
    cfg.crrs = crrs;
    cfg.engine.offload_enabled = offload;
    cfg.engine.ssd_count = 1;
    cfg.engine.stores_per_ssd = 2;
    cfg.engine.ssd = sim::Dct983Spec();
    cfg.engine.ssd.capacity_bytes = 1ull << 30;
    cfg.engine.ssd.latency_jitter = 0;
    cfg.engine.ssd.slow_io_prob = 0;
    cfg.engine.store_template.num_segments = 256;
    cfg.engine.store_template.bucket_size = 512;

    for (uint32_t i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<Node>(sim_, net_, cp_endpoint_, cfg, i,
                                              100 + i));
      endpoints_[i] = nodes_[i]->endpoint();
      nodes_[i]->set_node_endpoints(&endpoints_);
    }
    // Client endpoint for responses.
    client_ep_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(client_ep_, [this](sim::Message m) {
      if (auto* r = std::any_cast<ResponseMsg>(&m.payload)) {
        responses_.push_back(*r);
      }
    });

    // Hand every node the same 3-vnode view (one per node, R=3).
    view_.epoch = 1;
    view_.replication_factor = 3;
    for (uint32_t i = 0; i < 3; ++i) {
      view_.vnodes[i] = cluster::VNodeInfo{
          i, i, 0, static_cast<uint64_t>(i) * (UINT64_MAX / 3),
          cluster::VNodeState::kRunning};
    }
    DeliverView(view_);
  }

  void DeliverView(const cluster::ClusterView& v) {
    for (auto& [id, ep] : endpoints_) {
      net_.Send(cp_endpoint_, ep, 64, cluster::ViewUpdateMsg{v});
    }
    sim_.Run();
  }

  std::vector<cluster::VNodeId> ChainFor(const std::string& key) {
    return view_.ChainForKey(key);
  }

  void SendRequest(ClientRequestMsg msg, uint32_t to_node) {
    net_.Send(client_ep_, endpoints_[to_node], WireSize(msg), std::move(msg));
  }

  ResponseMsg WaitResponse() {
    size_t have = responses_.size();
    while (responses_.size() == have && sim_.events_pending() > 0 && sim_.Step()) {
    }
    EXPECT_GT(responses_.size(), have) << "no response arrived";
    return responses_.empty() ? ResponseMsg{} : responses_.back();
  }

  // Step until the response to `req_id` arrives (other responses — e.g. a
  // concurrent write's commit — may land first).
  ResponseMsg WaitResponseFor(uint64_t req_id) {
    auto find = [&]() -> const ResponseMsg* {
      for (const auto& r : responses_) {
        if (r.req_id == req_id) return &r;
      }
      return nullptr;
    };
    while (!find() && sim_.events_pending() > 0 && sim_.Step()) {
    }
    const ResponseMsg* r = find();
    EXPECT_NE(r, nullptr) << "no response to request " << req_id;
    return r ? *r : ResponseMsg{};
  }

  // A client read (GET or SCAN) addressed to chain[replica_index].
  ClientRequestMsg ReadAt(engine::OpType op, const std::string& key,
                          int replica_index) {
    auto chain = ChainFor(key);
    ClientRequestMsg msg;
    msg.req_id = next_req_id_++;
    msg.op = op;
    msg.key = key;
    msg.scan_limit = op == engine::OpType::kScan ? 4 : 0;
    msg.vnode = chain[replica_index];
    msg.hop = static_cast<uint8_t>(replica_index);
    msg.view_epoch = view_.epoch;
    msg.reply_to = client_ep_;
    return msg;
  }

  // Send `msg` to its addressed vnode's owner and wait for the answer.
  ResponseMsg RoundTrip(ClientRequestMsg msg) {
    const uint64_t id = msg.req_id;
    const uint32_t owner = view_.Find(msg.vnode)->owner_node;
    SendRequest(std::move(msg), owner);
    return WaitResponseFor(id);
  }

  uint32_t OwnerOf(cluster::VNodeId v) { return view_.Find(v)->owner_node; }

  uint64_t Total(uint64_t NodeStats::*field) {
    uint64_t sum = 0;
    for (auto& n : nodes_) sum += n->stats().*field;
    return sum;
  }

  // Issue a full PUT through the chain and wait for the client response.
  StatusCode DoPut(const std::string& key, std::vector<uint8_t> value) {
    auto chain = ChainFor(key);
    ClientRequestMsg msg;
    msg.req_id = next_req_id_++;
    msg.op = engine::OpType::kPut;
    msg.key = key;
    msg.value = std::move(value);
    msg.vnode = chain[0];
    msg.hop = 0;
    msg.view_epoch = view_.epoch;
    msg.reply_to = client_ep_;
    SendRequest(std::move(msg), view_.Find(chain[0])->owner_node);
    return WaitResponse().code;
  }

  StatusCode DoGet(const std::string& key, int replica_index,
                   std::vector<uint8_t>* out = nullptr) {
    auto chain = ChainFor(key);
    ClientRequestMsg msg;
    msg.req_id = next_req_id_++;
    msg.op = engine::OpType::kGet;
    msg.key = key;
    msg.vnode = chain[replica_index];
    msg.hop = static_cast<uint8_t>(replica_index);
    msg.view_epoch = view_.epoch;
    msg.reply_to = client_ep_;
    SendRequest(std::move(msg), view_.Find(chain[replica_index])->owner_node);
    ResponseMsg r = WaitResponse();
    if (out) *out = r.value;
    return r.code;
  }

  sim::Simulator sim_;
  sim::Network net_;
  sim::EndpointId cp_endpoint_;
  sim::EndpointId client_ep_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<uint32_t, sim::EndpointId> endpoints_;
  cluster::ClusterView view_;
  std::vector<ResponseMsg> responses_;
  uint64_t next_req_id_ = 1;
};

TEST_F(NodeProtocolTest, WriteReplicatesThroughChainAndAcksBackward) {
  EXPECT_EQ(DoPut("alpha", testutil::TestValue(1, 64)), StatusCode::kOk);
  sim_.Run();  // let backward acks apply at head/mid
  auto chain = ChainFor("alpha");
  // Each chain member counted the traversing write; the tail committed.
  uint64_t commits = 0, writes = 0, acks = 0;
  for (auto& n : nodes_) {
    commits += n->stats().commits_as_tail;
    writes += n->stats().chain_writes;
    acks += n->stats().chain_acks;
  }
  EXPECT_EQ(commits, 1u);
  EXPECT_EQ(writes, 3u);  // head, mid, tail
  EXPECT_EQ(acks, 2u);    // tail->mid, mid->head
  // Every replica can serve the read now (CRRS, clean key).
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> out;
    EXPECT_EQ(DoGet("alpha", i, &out), StatusCode::kOk) << "replica " << i;
    EXPECT_EQ(out, testutil::TestValue(1, 64));
  }
}

TEST_F(NodeProtocolTest, WrongHopNacks) {
  auto chain = ChainFor("beta");
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kPut;
  msg.key = "beta";
  msg.value = {1};
  msg.vnode = chain[1];  // mid node addressed as if it were the head
  msg.hop = 0;
  msg.reply_to = client_ep_;
  const uint32_t mid_owner = view_.Find(chain[1])->owner_node;
  SendRequest(std::move(msg), mid_owner);
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
  // Exactly one nacks_sent count per NACK on the wire.
  EXPECT_EQ(nodes_[mid_owner]->stats().nacks_sent, 1u);

  // A traversing chain write whose hop disagrees with the receiver's view.
  ChainWriteMsg w;
  w.write_id = 0xbe7a;
  w.key = "beta";
  w.value = {2};
  w.vnode = chain[1];
  w.hop = 2;
  w.reply_to = client_ep_;
  w.req_id = next_req_id_++;
  const uint64_t write_req = w.req_id;
  net_.Send(client_ep_, endpoints_[mid_owner], WireSize(w), w);
  EXPECT_EQ(WaitResponseFor(write_req).code, StatusCode::kWrongView);
  EXPECT_EQ(nodes_[mid_owner]->stats().nacks_sent, 2u);
}

TEST_F(NodeProtocolTest, UnknownVnodeNacks) {
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kGet;
  msg.key = "gamma";
  msg.vnode = 99;  // nobody owns this
  msg.hop = 0;
  msg.reply_to = client_ep_;
  SendRequest(std::move(msg), 0);
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
}

TEST_F(NodeProtocolTest, GetAtWrongIndexNacks) {
  ASSERT_EQ(DoPut("delta", testutil::TestValue(2, 32)), StatusCode::kOk);
  auto chain = ChainFor("delta");
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kGet;
  msg.key = "delta";
  msg.vnode = chain[2];
  msg.hop = 0;  // claims the tail is the head
  msg.reply_to = client_ep_;
  const uint32_t tail_owner = view_.Find(chain[2])->owner_node;
  const uint64_t nacks_before = nodes_[tail_owner]->stats().nacks_sent;
  SendRequest(std::move(msg), tail_owner);
  EXPECT_EQ(WaitResponse().code, StatusCode::kWrongView);
  // Exactly one nacks_sent count per NACK on the wire.
  EXPECT_EQ(nodes_[tail_owner]->stats().nacks_sent, nacks_before + 1);

  // Same for a SCAN at the wrong index.
  ClientRequestMsg scan = ReadAt(engine::OpType::kScan, "delta", 2);
  scan.hop = 0;
  EXPECT_EQ(RoundTrip(std::move(scan)).code, StatusCode::kWrongView);
  EXPECT_EQ(nodes_[tail_owner]->stats().nacks_sent, nacks_before + 2);
}

TEST_F(NodeProtocolTest, DirtyReadShipsToTail) {
  ASSERT_EQ(DoPut("eps", testutil::TestValue(3, 64)), StatusCode::kOk);
  sim_.Run();
  // Inject a chain write at the HEAD only (simulate an in-flight write by
  // not letting it propagate: pause the mid node).
  auto chain = ChainFor("eps");
  uint32_t mid_owner = view_.Find(chain[1])->owner_node;
  nodes_[mid_owner]->Fail();  // mid drops the forward -> head stays dirty

  ClientRequestMsg put;
  put.req_id = next_req_id_++;
  put.op = engine::OpType::kPut;
  put.key = "eps";
  put.value = testutil::TestValue(4, 64);
  put.vnode = chain[0];
  put.hop = 0;
  put.view_epoch = view_.epoch;
  put.reply_to = client_ep_;
  SendRequest(std::move(put), view_.Find(chain[0])->owner_node);
  sim_.RunUntil(sim_.Now() + 5 * kMillisecond);  // write stuck mid-chain

  // A GET at the (dirty) head must be shipped to the tail, which still has
  // the old committed value.
  uint64_t shipped_before = 0;
  for (auto& n : nodes_) shipped_before += n->stats().reads_shipped;
  std::vector<uint8_t> out;
  EXPECT_EQ(DoGet("eps", 0, &out), StatusCode::kOk);
  EXPECT_EQ(out, testutil::TestValue(3, 64));  // committed, not the stuck write
  uint64_t shipped_after = 0;
  for (auto& n : nodes_) shipped_after += n->stats().reads_shipped;
  EXPECT_EQ(shipped_after, shipped_before + 1);
}

TEST_F(NodeProtocolTest, DuplicateChainWriteIgnoredAfterCommit) {
  auto chain = ChainFor("zeta");
  uint32_t tail_owner = view_.Find(chain[2])->owner_node;
  ChainWriteMsg w;
  w.write_id = 0xabc123;
  w.key = "zeta";
  w.value = testutil::TestValue(5, 32);
  w.vnode = chain[2];
  w.hop = 2;
  w.reply_to = client_ep_;
  w.req_id = next_req_id_++;
  net_.Send(client_ep_, endpoints_[tail_owner], WireSize(w), w);
  (void)WaitResponse();
  uint64_t commits1 = nodes_[tail_owner]->stats().commits_as_tail;
  // Replay the identical write (re-forward after a view change).
  net_.Send(client_ep_, endpoints_[tail_owner], WireSize(w), w);
  sim_.Run();
  EXPECT_EQ(nodes_[tail_owner]->stats().commits_as_tail, commits1);
}

TEST_F(NodeProtocolTest, FailedNodeDropsEverything) {
  nodes_[0]->Fail();
  ClientRequestMsg msg;
  msg.req_id = next_req_id_++;
  msg.op = engine::OpType::kGet;
  msg.key = "any";
  msg.vnode = 0;
  msg.hop = 0;
  msg.reply_to = client_ep_;
  size_t before = responses_.size();
  SendRequest(std::move(msg), 0);
  sim_.Run();
  EXPECT_EQ(responses_.size(), before);  // silence, as fail-stop demands
}

TEST_F(NodeProtocolTest, PendingWriteCommitsOnTailPromotion) {
  // A write stuck mid-chain (successor dead) must commit when a view
  // change promotes the holder to tail — §3.8.2's penultimate-node rule.
  auto chain = ChainFor("omega");
  uint32_t mid_owner = view_.Find(chain[1])->owner_node;
  uint32_t tail_owner = view_.Find(chain[2])->owner_node;
  nodes_[tail_owner]->Fail();  // the write will never reach the tail

  ClientRequestMsg put;
  put.req_id = next_req_id_++;
  put.op = engine::OpType::kPut;
  put.key = "omega";
  put.value = testutil::TestValue(7, 64);
  put.vnode = chain[0];
  put.hop = 0;
  put.view_epoch = view_.epoch;
  put.reply_to = client_ep_;
  size_t responses_before = responses_.size();
  SendRequest(std::move(put), view_.Find(chain[0])->owner_node);
  sim_.RunUntil(sim_.Now() + 5 * kMillisecond);
  EXPECT_EQ(responses_.size(), responses_before);  // uncommitted: no reply

  // New view: the dead tail's vnode is gone; the mid node becomes tail.
  cluster::ClusterView v2 = view_;
  v2.epoch = 2;
  v2.vnodes.erase(chain[2]);
  DeliverView(v2);
  sim_.Run();

  // The promoted tail committed the buffered write and answered the client.
  ASSERT_GT(responses_.size(), responses_before);
  EXPECT_EQ(responses_.back().code, StatusCode::kOk);
  EXPECT_GT(nodes_[mid_owner]->stats().commits_as_tail, 0u);
  // And the value is durable at the promoted tail.
  view_ = v2;
  std::vector<uint8_t> out;
  EXPECT_EQ(DoGet("omega", static_cast<int>(ChainFor("omega").size()) - 1, &out),
            StatusCode::kOk);
  EXPECT_EQ(out, testutil::TestValue(7, 64));
}

TEST_F(NodeProtocolTest, StaleViewEpochIgnored) {
  cluster::ClusterView old = view_;
  old.epoch = 0;
  old.vnodes.clear();
  DeliverView(old);
  EXPECT_EQ(nodes_[0]->view().epoch, 1u);  // unchanged
  EXPECT_EQ(nodes_[0]->view().vnodes.size(), 3u);
}

// ---------------------------------------------------------------------------
// Read route (§3.7 CRRS, DESIGN.md §10): where each read is served. Every
// case runs twice — CPU path only, and with the host-bypass offload filter
// in front of it — and the filter must punt every case the CPU path does
// not simply serve locally on a data-complete, committed replica.
// ---------------------------------------------------------------------------

class ReadRouteTest : public NodeProtocolTest,
                      public ::testing::WithParamInterface<bool> {
 protected:
  ReadRouteTest() : NodeProtocolTest(/*crrs=*/true, /*offload=*/GetParam()) {}
  bool offload() const { return GetParam(); }
};

class PlainCrReadRouteTest : public NodeProtocolTest,
                             public ::testing::WithParamInterface<bool> {
 protected:
  PlainCrReadRouteTest()
      : NodeProtocolTest(/*crrs=*/false, /*offload=*/GetParam()) {}
  bool offload() const { return GetParam(); }
};

std::string RouteParamName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "offload" : "cpu";
}

INSTANTIATE_TEST_SUITE_P(Paths, ReadRouteTest, ::testing::Bool(),
                         RouteParamName);
INSTANTIATE_TEST_SUITE_P(Paths, PlainCrReadRouteTest, ::testing::Bool(),
                         RouteParamName);

TEST_P(PlainCrReadRouteTest, NonTailGetShipsToTail) {
  ASSERT_EQ(DoPut("cr-key", testutil::TestValue(11, 64)), StatusCode::kOk);
  sim_.Run();
  auto chain = ChainFor("cr-key");
  const uint32_t head_owner = OwnerOf(chain[0]);
  const uint32_t tail_owner = OwnerOf(chain[2]);
  const uint64_t shipped = Total(&NodeStats::reads_shipped);

  // Plain CR: only the tail serves reads, so the head ships. The head's
  // offload filter punts; the shipped read may take the tail's fast path.
  ResponseMsg r = RoundTrip(ReadAt(engine::OpType::kGet, "cr-key", 0));
  EXPECT_EQ(r.code, StatusCode::kOk);
  EXPECT_EQ(r.value, testutil::TestValue(11, 64));
  EXPECT_EQ(r.node, tail_owner);
  EXPECT_EQ(Total(&NodeStats::reads_shipped), shipped + 1);
  EXPECT_EQ(nodes_[head_owner]->stats().offload_gets, 0u);
  EXPECT_EQ(nodes_[tail_owner]->stats().offload_gets, offload() ? 1u : 0u);

  // A first-touch read at the tail is served right there.
  r = RoundTrip(ReadAt(engine::OpType::kGet, "cr-key", 2));
  EXPECT_EQ(r.code, StatusCode::kOk);
  EXPECT_EQ(r.node, tail_owner);
  EXPECT_EQ(Total(&NodeStats::reads_shipped), shipped + 1);
  EXPECT_EQ(nodes_[tail_owner]->stats().offload_gets, offload() ? 2u : 0u);
}

TEST_P(ReadRouteTest, CleanFirstTouchTailReadServedLocally) {
  ASSERT_EQ(DoPut("clean", testutil::TestValue(12, 64)), StatusCode::kOk);
  sim_.Run();
  const uint32_t tail_owner = OwnerOf(ChainFor("clean")[2]);
  const uint64_t shipped = Total(&NodeStats::reads_shipped);
  ResponseMsg r = RoundTrip(ReadAt(engine::OpType::kGet, "clean", 2));
  EXPECT_EQ(r.code, StatusCode::kOk);
  EXPECT_EQ(r.value, testutil::TestValue(12, 64));
  EXPECT_EQ(Total(&NodeStats::reads_shipped), shipped);
  // The one read the offload filter exists for: fast path.
  EXPECT_EQ(nodes_[tail_owner]->stats().offload_gets, offload() ? 1u : 0u);
}

TEST_P(ReadRouteTest, ShippedReadOnDirtyMidReplicaParksUntilApplied) {
  ASSERT_EQ(DoPut("park", testutil::TestValue(20, 64)), StatusCode::kOk);
  sim_.Run();
  auto chain = ChainFor("park");
  const uint32_t mid_owner = OwnerOf(chain[1]);

  // A write enters at the mid replica: it stays dirty there until the
  // tail's ack comes back and the local apply finishes.
  ChainWriteMsg w;
  w.write_id = 0x9a2c;
  w.key = "park";
  w.value = testutil::TestValue(21, 64);
  w.vnode = chain[1];
  w.hop = 1;
  w.view_epoch = view_.epoch;
  w.reply_to = client_ep_;
  w.req_id = next_req_id_++;
  const uint64_t chain_writes = nodes_[mid_owner]->stats().chain_writes;
  net_.Send(client_ep_, endpoints_[mid_owner], WireSize(w), w);
  while (nodes_[mid_owner]->stats().chain_writes == chain_writes &&
         sim_.Step()) {
  }

  // A read shipped to the (dirty) mid replica must not return the
  // pre-commit value: it parks and is served once the apply finished.
  ClientRequestMsg get = ReadAt(engine::OpType::kGet, "park", 1);
  get.shipped = true;
  ResponseMsg r = RoundTrip(std::move(get));
  EXPECT_EQ(r.code, StatusCode::kOk);
  EXPECT_EQ(r.node, mid_owner);
  EXPECT_EQ(r.value, testutil::TestValue(21, 64));
  EXPECT_EQ(nodes_[mid_owner]->stats().offload_gets, 0u);
}

TEST_P(ReadRouteTest, FailedStoreAnswersUnavailable) {
  // Node 0's only SSD dies; drive writes through it until the engine
  // latches the store failed.
  const uint32_t victim = 0;
  sim::FaultInjector faults(sim_, 7);
  nodes_[victim]->leed_engine()->ssd(0).set_faults(
      faults.AddDevice(sim::DeviceFaultSpec{}, 9, victim, 0));
  faults.KillDevice(victim, 0);
  for (int i = 0; i < 64 && !nodes_[victim]->leed_engine()->SsdFailed(0); ++i) {
    (void)DoPut("kill" + std::to_string(i), testutil::TestValue(i, 32));
    sim_.Run();
  }
  ASSERT_TRUE(nodes_[victim]->leed_engine()->SsdFailed(0));

  // A key whose chain starts on the victim covers every entry point.
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    std::string k = "dead" + std::to_string(i);
    if (OwnerOf(ChainFor(k)[0]) == victim) key = k;
  }
  const uint64_t refused = nodes_[victim]->stats().store_unavailable_nacks;
  EXPECT_EQ(RoundTrip(ReadAt(engine::OpType::kGet, key, 0)).code,
            StatusCode::kUnavailable);
  EXPECT_EQ(RoundTrip(ReadAt(engine::OpType::kScan, key, 0)).code,
            StatusCode::kUnavailable);
  EXPECT_EQ(DoPut(key, testutil::TestValue(30, 32)), StatusCode::kUnavailable);
  EXPECT_EQ(nodes_[victim]->stats().store_unavailable_nacks, refused + 3);
  EXPECT_EQ(nodes_[victim]->stats().offload_gets, 0u);
}

TEST_P(ReadRouteTest, ScanOnVnodeWithAnyFillActivityShips) {
  ASSERT_EQ(DoPut("scan-a", testutil::TestValue(40, 64)), StatusCode::kOk);
  sim_.Run();
  auto chain = ChainFor("scan-a");
  const uint32_t head_owner = OwnerOf(chain[0]);
  const uint32_t tail_owner = OwnerOf(chain[2]);

  // The head starts backfilling a tiny arc that does NOT cover the key.
  const uint64_t pos = cluster::HashRing::KeyPosition("scan-a");
  ASSERT_LT(pos, UINT64_MAX - 2);
  cluster::ClusterView v2 = view_;
  v2.epoch = 2;
  v2.filling.push_back(cluster::FillingRange{chain[0], pos + 1, pos + 2, 2});
  DeliverView(v2);
  view_ = v2;

  // Fill progress is per key for a GET: the head still serves this one.
  const uint64_t shipped = Total(&NodeStats::reads_shipped);
  ResponseMsg r = RoundTrip(ReadAt(engine::OpType::kGet, "scan-a", 0));
  EXPECT_EQ(r.code, StatusCode::kOk);
  EXPECT_EQ(r.node, head_owner);
  EXPECT_EQ(Total(&NodeStats::reads_shipped), shipped);

  // A SCAN spans an arbitrary range: any fill activity on the vnode
  // disqualifies it, so the scan ships to the tail-most complete member.
  r = RoundTrip(ReadAt(engine::OpType::kScan, "scan-a", 0));
  EXPECT_EQ(r.code, StatusCode::kOk);
  EXPECT_EQ(r.node, tail_owner);
  ASSERT_FALSE(r.scan_items.empty());
  EXPECT_EQ(r.scan_items[0].key, "scan-a");
  EXPECT_EQ(r.scan_items[0].value, testutil::TestValue(40, 64));
  EXPECT_EQ(Total(&NodeStats::reads_shipped), shipped + 1);
}

}  // namespace
}  // namespace leed
