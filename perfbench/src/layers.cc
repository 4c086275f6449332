#include "layers.h"

#include <algorithm>

#include "common/histogram.h"

namespace perfbench {

using leed::ClusterSim;
using leed::Histogram;
using leed::obs::Registry;

const std::vector<LayerMetricSpec>& LayerMetricSpecs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"sim.events_per_op", "events/op", "host.ops_per_s, all (most hot-read)"},
      {"sim.host_ns_per_event", "ns", "host.ops_per_s, all (most hot-read)"},
      {"sim.ssd.read_us.p99", "us", "read_p99_us (GET), hot-read"},
      {"sim.ssd.write_us.p99", "us", "write_p95_us, write-churn"},
      {"sim.net.msgs_per_op", "msgs/op", "host.ops_per_s and p50s, hot-read/write-churn"},
      {"sim.net.bytes_per_op", "B/op", "host.ops_per_s and p50s, hot-read/write-churn"},
      {"sim.cpu.util_mean", "ratio", "max_kqps_at_slo and kq_per_joule, all"},
      {"sim.cpu.util_max", "ratio", "max_kqps_at_slo and kq_per_joule, all"},
      {"engine.queue_us.p50", "us", "p99s and max_kqps_at_slo, hot-read/write-churn"},
      {"engine.queue_us.p99", "us", "p99s and max_kqps_at_slo, hot-read/write-churn"},
      {"engine.service_us.p99", "us", "p99s and max_kqps_at_slo, hot-read/write-churn"},
      {"engine.waited_ratio", "ratio", "p99s and max_kqps_at_slo, hot-read/write-churn"},
      {"engine.rejected_overloaded", "count", "served_ratio, all"},
      {"engine.swap_activations", "count", "write_p95_us, write-churn"},
      {"engine.trace_events_per_op", "events/op", "host.trace_overhead, all"},
      {"store.ssd_reads_per_get", "reads/op", "read_p50_us (GET), hot-read"},
      {"store.chain_extra_reads_per_get", "reads/op", "read_p50_us (GET), hot-read"},
      {"store.ssd_writes_per_put", "writes/op", "write_p90_us, write-churn"},
      {"store.get_retries_per_get", "retries/op", "write_p95_us, write-churn"},
      {"store.lock_waits_per_put", "waits/op", "write_p95_us, write-churn"},
      {"store.puts_failed_full", "count", "served_ratio, write-churn"},
      {"store.compaction_runs", "count", "write_p95_us and flash_bytes_per_user_byte, write-churn"},
      {"store.compaction_live_ratio", "ratio", "flash_bytes_per_user_byte, write-churn"},
      {"store.prefetch_hit_ratio", "ratio", "write_p95_us, write-churn"},
      {"store.scan_items_per_scan", "items/op", "read_p50_us and read_p99_us (SCAN), scan-range"},
      {"store.scan_stale_ratio", "ratio", "read_p50_us and read_p99_us (SCAN), scan-range"},
      {"log.write_amp", "ratio", "write_p95_us and kq_per_joule, write-churn"},
      {"log.wraps_per_store", "wraps", "confirms write-churn reached steady state"},
      {"flowctl.deferral_ratio", "ratio", "read_p99_us (GET), hot-read"},
      {"flowctl.probe_ratio", "ratio", "read_p99_us (GET), hot-read"},
      {"replication.chain_msgs_per_put", "msgs/op", "write_p90_us, write-churn"},
      {"replication.reads_shipped_per_get", "ratio", "read_p99_us (GET), hot-read"},
      {"replication.scans_parked_per_scan", "ratio", "read_p99_us (SCAN), scan-range"},
      {"client.retries_per_op", "retries/op", "served_ratio and p99s, write-churn/scan-range"},
      {"client.timeouts_per_op", "timeouts/op", "served_ratio and p99s, write-churn/scan-range"},
      {"client.nacks_per_op", "nacks/op", "served_ratio and p99s, write-churn/scan-range"},
      {"client.backoff_us_per_op", "us/op", "served_ratio and p99s, write-churn/scan-range"},
      {"host.setup.bootstrap_s", "s", "setup_s"},
      {"host.setup.preload_s", "s", "setup_s"},
      {"host.ops_per_s", "ops/s", "host cost of the whole program, all (most hot-read)"},
      {"host.issue_ns_per_op", "ns/op", "host.ops_per_s, hot-read"},
      {"host.dispatch_ns_per_op", "ns/op", "host.ops_per_s, hot-read"},
      {"host.bench_ns_per_op", "ns/op", "should stay flat"},
      {"host.trace_overhead", "ratio", "untraced / traced host.ops_per_s"},
  };
  return specs;
}

namespace {

// Registry names look like "node3.engine.store7.gets"; classify by shape.
enum class Scope { kNode, kEngine, kStore, kSsd, kSched, kNet };

bool Numbered(const std::string& seg, const char* stem) {
  const size_t n = std::char_traits<char>::length(stem);
  return seg.size() > n && seg.compare(0, n, stem) == 0 &&
         std::all_of(seg.begin() + n, seg.end(), [](char c) { return c >= '0' && c <= '9'; });
}

std::vector<std::string> Split(const std::string& name) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (true) {
    const size_t dot = name.find('.', pos);
    out.push_back(name.substr(pos, dot == std::string::npos ? std::string::npos : dot - pos));
    if (dot == std::string::npos) return out;
    pos = dot + 1;
  }
}

bool Matches(const std::string& name, Scope scope, const std::string& field) {
  const auto seg = Split(name);
  if (seg.empty() || seg.back() != field) return false;
  switch (scope) {
    case Scope::kNet:
      return seg.size() == 2 && seg[0] == "net";
    case Scope::kSched:
      return seg.size() == 3 && Numbered(seg[0], "client") && seg[1] == "sched";
    case Scope::kNode:
      return seg.size() == 2 && Numbered(seg[0], "node");
    case Scope::kEngine:
      return seg.size() == 3 && Numbered(seg[0], "node") && seg[1] == "engine";
    case Scope::kStore:
      return seg.size() == 4 && Numbered(seg[0], "node") && seg[1] == "engine" &&
             Numbered(seg[2], "store");
    case Scope::kSsd:
      return seg.size() == 4 && Numbered(seg[0], "node") && seg[1] == "engine" &&
             Numbered(seg[2], "ssd");
  }
  return false;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<std::string> HistogramNames(ClusterSim& cluster, const std::string& field) {
  std::vector<std::string> out;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    const std::string node = "node" + std::to_string(i) + ".engine.";
    if (field == "read_us" || field == "write_us") {
      const uint32_t ssds = cluster.node(i).leed_engine()->ssd_count();
      for (uint32_t s = 0; s < ssds; ++s) out.push_back(node + "ssd" + std::to_string(s) + "." + field);
    } else {
      out.push_back(node + field);
    }
  }
  return out;
}

Histogram Merged(ClusterSim& cluster, Registry& registry, const std::string& field) {
  Histogram h;
  for (const auto& name : HistogramNames(cluster, field)) {
    if (const Histogram* part = registry.FindHistogram(name)) h.Merge(*part);
  }
  return h;
}

constexpr const char* kHistogramFields[] = {"read_us", "write_us", "queue_us", "service_us"};

std::vector<uint64_t> LogTails(ClusterSim& cluster) {
  std::vector<uint64_t> out;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    leed::engine::IoEngine* eng = cluster.node(i).leed_engine();
    for (uint32_t s = 0; s < eng->num_stores(); ++s) {
      out.push_back(eng->data_store(s).home().key_log->tail());
      out.push_back(eng->data_store(s).home().value_log->tail());
    }
  }
  return out;
}

std::vector<std::vector<leed::SimTime>> StoreCoreBusy(ClusterSim& cluster) {
  std::vector<std::vector<leed::SimTime>> out;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    auto& cpu = cluster.node(i).cpu();
    const uint32_t cores = cluster.node(i).leed_engine()->ssd_count();
    out.emplace_back();
    for (uint32_t c = 0; c < cores; ++c) out.back().push_back(cpu.core(c).total_busy_ns());
  }
  return out;
}

}  // namespace

void LayerProbe::Start(ClusterSim& cluster, Registry& registry,
                       const leed::obs::TraceRing* ring) {
  counters_ = leed::obs::ParseSnapshotCounters(registry.SnapshotJson());
  for (const char* field : kHistogramFields) {
    for (const auto& name : HistogramNames(cluster, field)) registry.GetHistogram(name)->Reset();
  }
  log_tails_ = LogTails(cluster);
  busy_ = StoreCoreBusy(cluster);
  clients_.clear();
  for (uint32_t c = 0; c < cluster.num_clients(); ++c) clients_.push_back(cluster.client(c).stats());
  trace_recorded_ = ring ? ring->total_recorded() : 0;
  start_ = cluster.simulator().Now();
}

MetricMap LayerProbe::Finish(ClusterSim& cluster, Registry& registry,
                             const leed::obs::TraceRing* ring, uint32_t value_size) {
  const auto end = leed::obs::ParseSnapshotCounters(registry.SnapshotJson());
  auto sum = [&](Scope scope, const std::string& field) {
    double total = 0;
    for (const auto& [name, v] : end) {
      if (!Matches(name, scope, field)) continue;
      auto it = counters_.find(name);
      total += static_cast<double>(v - (it == counters_.end() ? 0 : it->second));
    }
    return total;
  };
  const double window = static_cast<double>(cluster.simulator().Now() - start_);

  // Client-side op totals over the window.
  double issued = 0, retries = 0, timeouts = 0, nacks = 0, backoff_us = 0, completed = 0;
  for (uint32_t c = 0; c < cluster.num_clients(); ++c) {
    const leed::ClientStats& now = cluster.client(c).stats();
    const leed::ClientStats& was = clients_[c];
    issued += static_cast<double>(now.issued - was.issued);
    completed += static_cast<double>((now.ok + now.not_found + now.failed) -
                                     (was.ok + was.not_found + was.failed));
    retries += static_cast<double>(now.retries - was.retries);
    timeouts += static_cast<double>(now.timeouts - was.timeouts);
    nacks += static_cast<double>(now.nacks - was.nacks);
    backoff_us += static_cast<double>(now.backoff_us - was.backoff_us);
  }

  MetricMap m;
  m["sim.ssd.read_us.p99"] = Merged(cluster, registry, "read_us").P99();
  m["sim.ssd.write_us.p99"] = Merged(cluster, registry, "write_us").P99();
  m["sim.net.msgs_per_op"] = Ratio(sum(Scope::kNet, "msgs_sent"), completed);
  m["sim.net.bytes_per_op"] = Ratio(sum(Scope::kNet, "bytes_sent"), completed);

  double util_sum = 0, util_max = 0, cores = 0;
  const auto busy = StoreCoreBusy(cluster);
  for (size_t i = 0; i < busy.size(); ++i) {
    for (size_t c = 0; c < busy[i].size(); ++c) {
      const double u = Ratio(static_cast<double>(busy[i][c] - busy_[i][c]), window);
      util_sum += u;
      util_max = std::max(util_max, u);
      cores += 1;
    }
  }
  m["sim.cpu.util_mean"] = Ratio(util_sum, cores);
  m["sim.cpu.util_max"] = util_max;

  const Histogram queue = Merged(cluster, registry, "queue_us");
  m["engine.queue_us.p50"] = queue.P50();
  m["engine.queue_us.p99"] = queue.P99();
  m["engine.service_us.p99"] = Merged(cluster, registry, "service_us").P99();
  m["engine.waited_ratio"] = Ratio(sum(Scope::kEngine, "waited"), sum(Scope::kEngine, "submitted"));
  m["engine.rejected_overloaded"] = sum(Scope::kEngine, "rejected_overloaded");
  m["engine.swap_activations"] = sum(Scope::kEngine, "swap_activations");
  m["engine.trace_events_per_op"] =
      ring ? Ratio(static_cast<double>(ring->total_recorded() - trace_recorded_), completed) : 0.0;

  const double gets = sum(Scope::kStore, "gets");
  const double puts = sum(Scope::kStore, "puts");
  m["store.ssd_reads_per_get"] = Ratio(sum(Scope::kStore, "ssd_reads"), gets);
  m["store.chain_extra_reads_per_get"] = Ratio(sum(Scope::kStore, "get_chain_extra_reads"), gets);
  m["store.ssd_writes_per_put"] = Ratio(sum(Scope::kStore, "ssd_writes"), puts);
  m["store.get_retries_per_get"] = Ratio(sum(Scope::kStore, "get_retries"), gets);
  m["store.lock_waits_per_put"] = Ratio(sum(Scope::kStore, "lock_waits"), puts);
  m["store.puts_failed_full"] = sum(Scope::kStore, "puts_failed_full");
  m["store.compaction_runs"] = sum(Scope::kStore, "key_compactions") + sum(Scope::kStore, "value_compactions");
  const double moved = sum(Scope::kStore, "items_live_moved");
  m["store.compaction_live_ratio"] = Ratio(moved, moved + sum(Scope::kStore, "items_dropped"));
  const double hits = sum(Scope::kStore, "prefetch_hits");
  m["store.prefetch_hit_ratio"] = Ratio(hits, hits + sum(Scope::kStore, "prefetch_misses"));
  const double scans_served = sum(Scope::kNode, "scans_served");
  m["store.scan_items_per_scan"] = Ratio(sum(Scope::kNode, "scan_items_returned"), scans_served);
  m["store.scan_stale_ratio"] = Ratio(sum(Scope::kStore, "scan_stale_locs"), sum(Scope::kStore, "scan_items"));

  // User PUT bytes: client-acknowledged-or-not writes that entered a chain
  // head in the window, times the record size.
  const double headed = sum(Scope::kNode, "writes_headed");
  m["log.write_amp"] = Ratio(sum(Scope::kSsd, "write_bytes"), headed * value_size);
  double min_wraps = -1;
  size_t idx = 0;
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    leed::engine::IoEngine* eng = cluster.node(i).leed_engine();
    for (uint32_t s = 0; s < eng->num_stores(); ++s) {
      for (const leed::log::CircularLog* lg :
           {eng->data_store(s).home().key_log, eng->data_store(s).home().value_log}) {
        const double w = static_cast<double>(lg->tail() - log_tails_[idx++]) /
                         static_cast<double>(lg->size());
        min_wraps = min_wraps < 0 ? w : std::min(min_wraps, w);
      }
    }
  }
  m["log.wraps_per_store"] = std::max(0.0, min_wraps);

  m["flowctl.deferral_ratio"] = Ratio(sum(Scope::kSched, "deferrals"), sum(Scope::kSched, "enqueued"));
  m["flowctl.probe_ratio"] = Ratio(sum(Scope::kSched, "sent_as_probe"), sum(Scope::kSched, "sent"));

  m["replication.chain_msgs_per_put"] =
      Ratio(sum(Scope::kNode, "chain_writes") + sum(Scope::kNode, "chain_acks"), headed);
  m["replication.reads_shipped_per_get"] =
      Ratio(sum(Scope::kNode, "reads_shipped"), sum(Scope::kNode, "gets_served"));
  m["replication.scans_parked_per_scan"] = Ratio(sum(Scope::kNode, "scans_parked"), scans_served);

  m["client.retries_per_op"] = Ratio(retries, issued);
  m["client.timeouts_per_op"] = Ratio(timeouts, issued);
  m["client.nacks_per_op"] = Ratio(nacks, issued);
  m["client.backoff_us_per_op"] = Ratio(backoff_us, issued);
  return m;
}

void AddHostSpanMetrics(const WindowResult& traced, MetricMap* out) {
  const double ops = static_cast<double>(traced.completed);
  const HostSpans& s = traced.spans;
  (*out)["host.issue_ns_per_op"] = Ratio(s.issue_ns, ops);
  (*out)["host.dispatch_ns_per_op"] = Ratio(s.run_ns - s.callback_ns, ops);
  (*out)["host.bench_ns_per_op"] = Ratio(s.callback_ns - s.issue_ns, ops);
}

}  // namespace perfbench
