// Per-layer metrics of one measured window, read only through public APIs:
// registry counter deltas (histograms are reset at window start), CPU core
// busy time, circular-log tails, client stats, the engine trace ring, and
// the benchmark's own host spans.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver.h"
#include "leed/cluster_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
  const char* moves;  // the end-to-end metric it should move, and where
};

// Every per-layer metric, in report order.
const std::vector<LayerMetricSpec>& LayerMetricSpecs();

using MetricMap = std::map<std::string, double>;

class LayerProbe {
 public:
  // Call at the start of the measured interval (inside the simulation).
  void Start(leed::ClusterSim& cluster, leed::obs::Registry& registry,
             const leed::obs::TraceRing* ring);
  // Call right after the measured interval ends. Fills every simulated
  // per-layer metric (sim/engine/store/log/flowctl/replication/client).
  MetricMap Finish(leed::ClusterSim& cluster, leed::obs::Registry& registry,
                   const leed::obs::TraceRing* ring, uint32_t value_size);

 private:
  std::map<std::string, uint64_t> counters_;
  std::vector<uint64_t> log_tails_;
  std::vector<std::vector<leed::SimTime>> busy_;
  std::vector<leed::ClientStats> clients_;
  uint64_t trace_recorded_ = 0;
  leed::SimTime start_ = 0;
};

// Host metrics from the benchmark's spans of a (traced) window.
void AddHostSpanMetrics(const WindowResult& traced, MetricMap* out);

}  // namespace perfbench
