#include "driver.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using leed::ClusterSim;
using leed::Status;

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = std::max<size_t>(1, static_cast<size_t>(std::ceil(q * v.size())));
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

bool HasTail(size_t n, double q) {
  return n > 0 && n - static_cast<size_t>(std::ceil(q * n)) >= 10;
}

double WindowResult::OverallPercentileUs(double q) const {
  std::vector<double> all;
  for (const auto& k : kinds) all.insert(all.end(), k.lat_us.begin(), k.lat_us.end());
  return Percentile(std::move(all), q);
}

struct OpenLoop::State {
  WindowSpec spec;
  WindowResult res;
  double next_due = 0;  // ns, accumulated exactly in double
  bool stopped = false;
  bool finalized = false;  // res handed out; late completions only drain
  uint64_t open_total = 0;
  uint64_t open_measured[3] = {0, 0, 0};
  uint64_t miss_budget = 0;
  uint64_t fail_budget = 0;
  std::vector<std::vector<SimTime>> busy_start;
};

namespace {

std::vector<std::vector<SimTime>> SnapshotBusy(ClusterSim& cluster) {
  std::vector<std::vector<SimTime>> out(cluster.num_nodes());
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    auto& cpu = cluster.node(i).cpu();
    for (uint32_t c = 0; c < cpu.num_cores(); ++c) out[i].push_back(cpu.core(c).total_busy_ns());
  }
  return out;
}

}  // namespace

OpenLoop::OpenLoop(ClusterSim& cluster, ValueBook& book, OpStream& stream, bool spans)
    : cluster_(cluster), book_(book), stream_(stream), spans_(spans) {}

void OpenLoop::Mismatch(const std::string& what) {
  if (mismatches_++ == 0) first_mismatch_ = what;
}

void OpenLoop::Finish(State& st, Kind kind, SimTime due, bool measured, bool ok) {
  --st.open_total;
  if (!measured || st.finalized) return;
  const int k = static_cast<int>(kind);
  --st.open_measured[k];
  KindSamples& ks = st.res.kinds[k];
  if (ok) {
    const double lat = static_cast<double>(cluster_.simulator().Now() - due) / 1e3;
    ks.lat_us.push_back(lat);
    ++ks.ok;
    ++st.res.completed;
    if (st.spec.slo_us > 0 && lat > st.spec.slo_us) ++st.res.misses;
  } else {
    ++ks.failed;
    ++st.res.failed;
  }
}

void OpenLoop::Arrive(const std::shared_ptr<State>& st) {
  if (st->stopped) return;
  const double c0 = spans_ ? NowNs() : 0;
  leed::sim::Simulator& sim = cluster_.simulator();
  const SimTime due = static_cast<SimTime>(st->next_due);
  const SimTime now = sim.Now();
  const bool measured = due >= st->res.measure_start && due < st->res.measure_end;
  const GenOp op = stream_.Next();
  const int k = static_cast<int>(op.kind);
  leed::Client& cl = cluster_.client(next_client_++ % cluster_.num_clients());
  WindowResult& res = st->res;
  if (measured) {
    ++res.arrivals;
    ++res.kinds[k].arrivals;
    res.max_lateness_us = std::max(res.max_lateness_us, static_cast<double>(now - due) / 1e3);
  }

  if (cl.outstanding() >= st->spec.refuse_outstanding) {
    if (measured) {
      ++res.kinds[k].refused;
      ++res.refused;
      ++res.failed;
    }
  } else {
    ++st->open_total;
    if (measured) ++st->open_measured[k];
    const uint64_t key = op.key_id;
    std::string name = ValueBook::KeyName(key);
    switch (op.kind) {
      case Kind::kGet: {
        const double i0 = spans_ ? NowNs() : 0;
        cl.Get(std::move(name), [this, st, key, due, measured](
                                    Status s, std::vector<uint8_t> value, SimTime) {
          const double t0 = spans_ ? NowNs() : 0;
          if (s.ok() && !book_.Check(key, value)) {
            Mismatch("GET " + ValueBook::KeyName(key) + " returned a value never written");
          } else if (s.IsNotFound()) {
            Mismatch("GET " + ValueBook::KeyName(key) + " returned NotFound for a written key");
          }
          Finish(*st, Kind::kGet, due, measured, s.ok() || s.IsNotFound());
          if (spans_) spans_total_.callback_ns += NowNs() - t0;
        });
        if (spans_) spans_total_.issue_ns += NowNs() - i0;
        break;
      }
      case Kind::kPut: {
        std::vector<uint8_t> value = book_.Write(key);
        const double i0 = spans_ ? NowNs() : 0;
        cl.Put(std::move(name), std::move(value), [this, st, due, measured](Status s, SimTime) {
          const double t0 = spans_ ? NowNs() : 0;
          Finish(*st, Kind::kPut, due, measured, s.ok());
          if (spans_) spans_total_.callback_ns += NowNs() - t0;
        });
        if (spans_) spans_total_.issue_ns += NowNs() - i0;
        break;
      }
      case Kind::kScan: {
        const uint32_t limit = op.scan_len;
        const double i0 = spans_ ? NowNs() : 0;
        cl.Scan(std::move(name), limit,
                [this, st, key, limit, due, measured](
                    Status s, std::vector<leed::store::ScanItem> items, SimTime) {
                  const double t0 = spans_ ? NowNs() : 0;
                  if (s.ok()) CheckScan(key, limit, items);
                  if (measured && s.ok()) st->res.scan_items += items.size();
                  Finish(*st, Kind::kScan, due, measured, s.ok() || s.IsNotFound());
                  if (spans_) spans_total_.callback_ns += NowNs() - t0;
                });
        if (spans_) spans_total_.issue_ns += NowNs() - i0;
        break;
      }
    }
  }

  st->next_due += stream_.NextGapNs(st->spec.qps);
  const SimTime next = static_cast<SimTime>(st->next_due);
  if (next < res.measure_end) sim.At(next, [this, st] { Arrive(st); });
  if (spans_) spans_total_.callback_ns += NowNs() - c0;
}

void OpenLoop::CheckScan(uint64_t start_id, uint32_t limit,
                         const std::vector<leed::store::ScanItem>& items) {
  const std::string start = ValueBook::KeyName(start_id);
  if (items.size() > limit) {
    Mismatch("SCAN " + start + " returned more items than its limit");
  }
  const std::string* prev = nullptr;
  for (const auto& item : items) {
    uint64_t id = 0;
    if (item.key < start || (prev && item.key <= *prev)) {
      Mismatch("SCAN " + start + " returned keys out of order at " + item.key);
      return;
    }
    if (!ValueBook::ParseKey(item.key, &id) || !book_.Check(id, item.value)) {
      Mismatch("SCAN " + start + " returned a wrong value for " + item.key);
      return;
    }
    prev = &item.key;
  }
}

void OpenLoop::TimedRunUntil(SimTime deadline) {
  if (!spans_) {
    cluster_.simulator().RunUntil(deadline);
    return;
  }
  const double t0 = NowNs();
  cluster_.simulator().RunUntil(deadline);
  spans_total_.run_ns += NowNs() - t0;
}

void OpenLoop::DrainPrevious(SimTime deadline) {
  if (!previous_) return;
  previous_->stopped = true;
  leed::sim::Simulator& sim = cluster_.simulator();
  while (previous_->open_total > 0 && sim.Now() < deadline) {
    sim.RunUntil(sim.Now() + leed::kMillisecond);
  }
  previous_.reset();
}

WindowResult OpenLoop::RunWindow(const WindowSpec& spec) {
  leed::sim::Simulator& sim = cluster_.simulator();
  DrainPrevious(sim.Now() + spec.drain);

  auto st = std::make_shared<State>();
  st->spec = spec;
  WindowResult& res = st->res;
  const SimTime start = sim.Now();
  res.measure_start = start + spec.warmup;
  res.measure_end = res.measure_start + spec.window;
  const double expected = spec.qps * static_cast<double>(spec.window) / 1e9;
  // Slightly above the exact limits so an abandoned probe is one the full
  // window would have failed too.
  st->miss_budget = static_cast<uint64_t>(std::ceil(0.011 * expected));
  st->fail_budget = static_cast<uint64_t>(std::ceil(1.1 * spec.max_fail_ratio * expected));
  st->next_due = static_cast<double>(start) + stream_.NextGapNs(spec.qps);
  sim.At(static_cast<SimTime>(st->next_due), [this, st] { Arrive(st); });
  sim.At(res.measure_start, [this, st] {
    st->busy_start = SnapshotBusy(cluster_);
    if (st->spec.on_measure_start) st->spec.on_measure_start();
  });

  sim.RunUntil(res.measure_start);

  // Measured interval, in 1 ms slices so a hopeless probe stops early.
  const HostSpans spans_before = spans_total_;
  const uint64_t events_before = sim.events_executed();
  const double cpu0 = CpuNs();
  while (sim.Now() < res.measure_end) {
    TimedRunUntil(std::min(res.measure_end, sim.Now() + leed::kMillisecond));
    if (!spec.abandon_early) continue;
    if (res.misses > st->miss_budget) {
      res.abandoned = true;
      res.abandon_reason = "p99 over limit";
    } else if (res.failed > st->fail_budget) {
      res.abandoned = true;
      res.abandon_reason = "failures";
    } else if (st->open_total > spec.backlog_cap) {
      res.abandoned = true;
      res.abandon_reason = "backlog";
    }
    if (res.abandoned) break;
  }
  res.host_cpu_s = (CpuNs() - cpu0) / 1e9;
  res.events = sim.events_executed() - events_before;
  res.spans.run_ns = spans_total_.run_ns - spans_before.run_ns;
  res.spans.callback_ns = spans_total_.callback_ns - spans_before.callback_ns;
  res.spans.issue_ns = spans_total_.issue_ns - spans_before.issue_ns;
  st->stopped = true;
  previous_ = st;
  if (res.abandoned) {
    st->finalized = true;
    return res;
  }

  res.backlog_grew = spec.backlog_cap > 0 && st->open_total > spec.backlog_cap;
  res.power_w = cluster_.ClusterPowerWatts(st->busy_start, spec.window);
  if (spec.on_measure_end) spec.on_measure_end();

  // Let the measured ops finish; whatever is still open is a failure.
  const SimTime drain_end = res.measure_end + spec.drain;
  while (sim.Now() < drain_end &&
         st->open_measured[0] + st->open_measured[1] + st->open_measured[2] > 0) {
    sim.RunUntil(std::min(drain_end, sim.Now() + leed::kMillisecond));
  }
  for (int k = 0; k < 3; ++k) {
    res.kinds[k].failed += st->open_measured[k];
    res.open_at_end += st->open_measured[k];
    res.failed += st->open_measured[k];
  }
  st->finalized = true;
  return res;
}

}  // namespace perfbench
