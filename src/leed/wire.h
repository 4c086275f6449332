// Data-path wire messages (client <-> node, node <-> node).
//
// The paper's transport is RDMA with a hybrid verb scheme (§3.5): requests
// use two-sided SENDs, responses one-sided WRITEs into pre-allocated client
// memory with the request id in the 32-bit IMM field. At the simulation's
// message level that maps to: requests and responses are single messages,
// responses carry `req_id` for completion matching, and every response
// piggybacks the target SSD's token allocation (the flow-control feedback).
//
// The hop counter (§3.8.1) rides in every request: the receiver recomputes
// the chain in *its* view and verifies it really is chain[hop] for this
// key; any mismatch NACKs back to the client, which refreshes its view and
// retries. This is what keeps cross-view windows safe during membership
// changes.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "common/status.h"
#include "engine/storage_service.h"
#include "sim/network.h"

namespace leed {

struct ClientRequestMsg {
  uint64_t req_id = 0;
  engine::OpType op = engine::OpType::kGet;
  std::string key;            // SCAN: the inclusive start key
  std::vector<uint8_t> value;
  uint32_t scan_limit = 0;    // SCAN: max items returned (0 for point ops)
  cluster::VNodeId vnode = cluster::kInvalidVNode;  // addressed chain member
  uint8_t hop = 0;            // expected index of `vnode` in the key's chain
  uint64_t view_epoch = 0;    // client's view at issue time
  sim::EndpointId reply_to = sim::kInvalidEndpoint;
  bool shipped = false;       // CRRS: GET/SCAN shipped replica -> tail
};

// CRAQ-style version query (§3.7's rejected design alternative, kept as an
// ablation): a dirty replica asks the tail to serialize the read instead
// of shipping it; the reply lets the replica serve its last-committed copy
// locally. Costs an extra cross-JBOF round trip per dirty read.
struct CraqQueryMsg {
  uint64_t query_id = 0;
  std::string key;
  cluster::VNodeId tail_vnode = cluster::kInvalidVNode;
  sim::EndpointId reply_to = sim::kInvalidEndpoint;  // querying node
};

struct CraqReplyMsg {
  uint64_t query_id = 0;
};

// A write propagating along the chain (head -> ... -> tail).
struct ChainWriteMsg {
  uint64_t write_id = 0;
  bool is_del = false;
  std::string key;
  std::vector<uint8_t> value;
  cluster::VNodeId vnode = cluster::kInvalidVNode;  // addressed member
  uint8_t hop = 0;
  uint64_t view_epoch = 0;
  sim::EndpointId reply_to = sim::kInvalidEndpoint;
  uint64_t req_id = 0;
};

// Commitment acknowledgment flowing tail -> head; clears (and applies) the
// pending write at each replica. success=false aborts (tail could not
// apply), rolling the pending buffer back (paper §3.8.2 failed-tail case).
struct ChainAckMsg {
  uint64_t write_id = 0;
  std::string key;
  cluster::VNodeId vnode = cluster::kInvalidVNode;  // receiver's vnode
  bool success = true;
  // Tail commit stamp (replication::CommitStamp, carried flat to keep the
  // wire structs header-light): acks can reorder on the wire, so replicas
  // apply in stamp order per key instead of ack-arrival order.
  uint64_t commit_epoch = 0;
  uint64_t commit_seq = 0;
};

struct ResponseMsg {
  uint64_t req_id = 0;
  StatusCode code = StatusCode::kOk;
  std::vector<uint8_t> value;
  // SCAN payload: ordered (key, value) items starting at the request's
  // start key. Empty for point ops.
  std::vector<store::ScanItem> scan_items;
  // Flow-control piggyback (§3.5): which SSD served this and its current
  // token allocation.
  uint32_t node = 0;
  uint32_t ssd = 0;
  uint32_t tokens = 0;
  bool has_tokens = false;
};

// Approximate wire sizes: RDMA header + immediate + payload.
constexpr uint64_t kRpcHeaderBytes = 64;

inline uint64_t WireSize(const ClientRequestMsg& m) {
  return kRpcHeaderBytes + m.key.size() + m.value.size();
}
inline uint64_t WireSize(const ChainWriteMsg& m) {
  return kRpcHeaderBytes + m.key.size() + m.value.size();
}
inline uint64_t WireSize(const ChainAckMsg& m) {
  return kRpcHeaderBytes + m.key.size();
}
inline uint64_t WireSize(const ResponseMsg& m) {
  uint64_t bytes = kRpcHeaderBytes + m.value.size();
  for (const auto& item : m.scan_items) {
    bytes += item.key.size() + item.value.size();
  }
  return bytes;
}
inline uint64_t WireSize(const CraqQueryMsg& m) {
  return kRpcHeaderBytes + m.key.size();
}
inline uint64_t WireSize(const CraqReplyMsg&) { return kRpcHeaderBytes; }

}  // namespace leed
