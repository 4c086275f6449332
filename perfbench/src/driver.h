// Open-loop driver: Poisson arrivals at due sim-times, issued through the
// public Client::Get/Put/Scan of a ClusterSim, every returned value
// verified, latency timed from the due time.
//
// One OpenLoop drives one cluster through any number of windows (the
// reference window, or the capacity search's probes one after another).
// A window is warmup + measured interval; only ops *due* inside the measured
// interval count. Probes may be abandoned early once they have provably
// missed the latency limit or their backlog outgrows what the limit allows,
// so overload never dominates host time.

#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gen.h"
#include "leed/cluster_sim.h"
#include "verify.h"

namespace perfbench {

using leed::SimTime;

struct WindowSpec {
  double qps = 0;
  SimTime warmup = 0;
  SimTime window = 0;
  // After the window, wait at most this long (sim) for measured ops to
  // finish; ops still open then count as failed.
  SimTime drain = 200 * leed::kMillisecond;
  // Per-client in-flight cap: arrivals beyond it are refused (and count as
  // failed), so a wedged cluster cannot absorb unbounded memory.
  size_t refuse_outstanding = 5000;
  // Capacity-search probes only: abandon as soon as the window can no
  // longer meet `slo_us` at the 99th percentile, its failures exceed
  // `max_fail_ratio`, or the in-flight count exceeds `backlog_cap`.
  bool abandon_early = false;
  double slo_us = 0;
  double max_fail_ratio = 0;
  uint64_t backlog_cap = 0;
  // Called inside the simulation at the start of the measured interval,
  // and right after it ends (before the drain).
  std::function<void()> on_measure_start;
  std::function<void()> on_measure_end;
};

struct KindSamples {
  std::vector<double> lat_us;  // completed ok / not-found ops
  uint64_t arrivals = 0, ok = 0, failed = 0, refused = 0;
};

// Host-time spans the benchmark records around its calls into the program.
// They are steady-clock time (NowNs): they time sub-microsecond calls, and a
// CPU-time clock read is a system call costing more than that.
struct HostSpans {
  double run_ns = 0;       // inside Simulator::RunUntil (everything)
  double callback_ns = 0;  // inside the benchmark's arrival/completion callbacks
  double issue_ns = 0;     // inside Client::Get/Put/Scan (subset of callback_ns)
};

struct WindowResult {
  KindSamples kinds[3];  // indexed by Kind
  uint64_t arrivals = 0, completed = 0, failed = 0, refused = 0;
  uint64_t open_at_end = 0;  // measured ops that never finished (in failed)
  uint64_t misses = 0;       // completed measured ops over the latency limit
  uint64_t scan_items = 0;
  bool abandoned = false;
  std::string abandon_reason;
  bool backlog_grew = false;
  double max_lateness_us = 0;
  double power_w = 0;
  SimTime measure_start = 0, measure_end = 0;
  // Host side of the measured interval: process CPU time (see CpuNs).
  double host_cpu_s = 0;
  uint64_t events = 0;
  HostSpans spans;

  const KindSamples& kind(Kind k) const { return kinds[static_cast<int>(k)]; }
  double fail_ratio() const {
    return arrivals ? static_cast<double>(failed) / static_cast<double>(arrivals) : 0.0;
  }
  // Percentile over every completed op, all kinds together. Failed and
  // refused ops are judged by fail_ratio() instead.
  double OverallPercentileUs(double q) const;
};

// Nearest-rank percentile of unsorted samples (takes a copy).
double Percentile(std::vector<double> v, double q);
// Percentile q is reportable when at least 10 samples lie beyond it.
bool HasTail(size_t n, double q);

class OpenLoop {
 public:
  OpenLoop(leed::ClusterSim& cluster, ValueBook& book, OpStream& stream,
           bool spans);

  WindowResult RunWindow(const WindowSpec& spec);

  // Verification failures seen so far (any window, measured or not).
  uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  struct State;
  void Arrive(const std::shared_ptr<State>& st);
  void Finish(State& st, Kind kind, SimTime due, bool measured, bool ok);
  void CheckScan(uint64_t start_id, uint32_t limit,
                 const std::vector<leed::store::ScanItem>& items);
  void Mismatch(const std::string& what);
  void DrainPrevious(SimTime deadline);
  void TimedRunUntil(SimTime deadline);

  leed::ClusterSim& cluster_;
  ValueBook& book_;
  OpStream& stream_;
  const bool spans_;
  uint32_t next_client_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
  std::shared_ptr<State> previous_;
  HostSpans spans_total_;
};

// Wall time, for the run's --seconds budget and the fine-grained spans.
inline double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of this (single-threaded) process, user + system. The host
// figures (setup_s, host_ops_per_s) use it, so time the scheduler gives to
// other processes on a shared machine does not count against the program.
inline double CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
