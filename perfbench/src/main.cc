// leedbench: the repository benchmark (see ../METHODOLOGY.md).
//
//   leedbench --workload hot-read|write-churn|scan-range --seed N
//             --seconds S --trace 0|1 [--report-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer breakdown (registry deltas, engine trace ring,
// history + linearizability check, host spans). The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Any value
// mismatch, failed self-check or non-deterministic replay exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "check/linearize.h"
#include "driver.h"
#include "gen.h"
#include "layers.h"
#include "verify.h"

namespace perfbench {
namespace {

using leed::kMillisecond;

constexpr uint32_t kValueSize = 1024;
constexpr uint32_t kKeyBytes = 16;  // "user" + 12 digits
constexpr size_t kMinSetups = 7;
constexpr size_t kMaxSetups = 40;
constexpr double kMinSetupSeconds = 3.0;
// Sim time with no arrivals before each capacity probe.
constexpr SimTime kProbeSettle = 1000 * kMillisecond;

struct Workload {
  const char* name;
  MixSpec mix;
  uint64_t keys;
  uint64_t partition_bytes;  // 0: the preset's geometry
  double ref_kqps;           // fixed reference rate
  double slo_us;             // p99 latency limit of the capacity search
  double max_fail_ratio;     // fail_ratio limit of the capacity search
  SimTime warmup, window;    // reference window
  SimTime probe_warmup, probe_window;
  // Linearizability is checked on every write and on the reads invoked
  // before measure start + check_span (0: the whole history).
  SimTime check_span;
  // Self-checks on the reference window's layer metrics.
  bool expect_no_compaction;
  bool expect_shipping;
  double expect_min_wraps;
  bool expect_scans;
};

const Workload kWorkloads[] = {
    {"hot-read", {0.95, false, false, 0.99, 100}, 20000, 0, 1500, 300, 0.001,
     20 * kMillisecond, 200 * kMillisecond, 10 * kMillisecond, 30 * kMillisecond, 0,
     true, true, 0, false},
    {"write-churn", {0.50, false, false, 0.99, 100}, 4000, 3ull << 20, 170, 1000, 0.001,
     150 * kMillisecond, 1000 * kMillisecond, 50 * kMillisecond, 200 * kMillisecond, 0,
     false, false, 1.0, false},
    {"scan-range", {0.95, true, true, 0.0, 100}, 20000, 0, 12, 20000, 0.05,
     50 * kMillisecond, 1000 * kMillisecond, 50 * kMillisecond, 1000 * kMillisecond,
     100 * kMillisecond, false, false, 0, true},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string report_dir;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
  return r.Next();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t HashString(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Cluster set-up.

struct Built {
  std::unique_ptr<leed::obs::Registry> registry;
  std::unique_ptr<leed::obs::TraceRing> ring;
  std::unique_ptr<leed::ClusterSim> cluster;
  double construct_s = 0, bootstrap_s = 0, preload_s = 0;  // process CPU time
  double setup_s() const { return construct_s + bootstrap_s + preload_s; }
};

Built Build(const Workload& w, uint64_t seed, bool traced) {
  Built b;
  b.registry = std::make_unique<leed::obs::Registry>();
  leed::ClusterConfig cfg = leed::bench::LeedCluster(3, kValueSize, Mix(seed, 0xc1));
  cfg.node.metrics_registry = b.registry.get();
  if (w.partition_bytes) cfg.node.engine.partition_bytes = w.partition_bytes;
  if (traced) {
    b.ring = std::make_unique<leed::obs::TraceRing>();
    b.ring->set_enabled(true);
    cfg.node.trace = b.ring.get();
    cfg.record_history = true;
    cfg.history_max_ops = 4u << 20;
  }
  const double t0 = CpuNs();
  b.cluster = std::make_unique<leed::ClusterSim>(cfg);
  const double t1 = CpuNs();
  b.cluster->Bootstrap();
  const double t2 = CpuNs();
  b.cluster->Preload(w.keys, kValueSize);
  const double t3 = CpuNs();
  b.construct_s = (t1 - t0) / 1e9;
  b.bootstrap_s = (t2 - t1) / 1e9;
  b.preload_s = (t3 - t2) / 1e9;
  return b;
}

// Flash bytes held by every store's logs (home logs plus the shared donor
// regions) over the user bytes they represent.
double FlashBytesPerUserByte(leed::ClusterSim& cluster, uint64_t live_keys) {
  double used = 0;
  std::vector<const leed::log::CircularLog*> seen;
  auto add = [&](const leed::log::CircularLog* lg) {
    if (!lg || std::find(seen.begin(), seen.end(), lg) != seen.end()) return;
    seen.push_back(lg);
    used += static_cast<double>(lg->used());
  };
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    leed::engine::IoEngine* eng = cluster.node(i).leed_engine();
    for (uint32_t s = 0; s < eng->num_stores(); ++s) {
      const leed::store::DataStore& ds = eng->data_store(s);
      for (uint32_t ssd = 0; ssd < eng->ssd_count(); ++ssd) {
        if (!ds.HasLogSet(static_cast<uint8_t>(ssd))) continue;
        const leed::store::LogSet& set = ds.log_set(static_cast<uint8_t>(ssd));
        add(set.key_log);
        add(set.value_log);
      }
      add(ds.home().key_log);
      add(ds.home().value_log);
    }
  }
  const double rf = cluster.config().control_plane.replication_factor;
  return used / (static_cast<double>(live_keys) * (kKeyBytes + kValueSize) * rf);
}

// ---------------------------------------------------------------------------
// Reference-rate trial: fresh cluster, one window at the workload's fixed
// rate, every returned value verified.

struct RefTrial {
  Built built;
  WindowResult res;
  MetricMap layers;
  double flash_ratio = 0;
  uint64_t signature = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  std::string check_summary;
  double check_s = 0;  // host time spent in the linearizability check
  bool linearizable = true;
};

// Record the preloaded version of every key as an already-completed PUT so
// the history is self-contained for the checker.
void RecordPreloadHistory(leed::ClusterSim& cluster, const ValueBook& book, uint64_t keys) {
  leed::check::HistoryLog* log = cluster.mutable_history();
  const uint32_t client = cluster.num_clients();  // an id no real client uses
  const leed::SimTime now = cluster.simulator().Now();
  for (uint64_t k = 0; k < keys; ++k) {
    const uint64_t d = leed::check::ValueDigest(book.Value(k, 0));
    const uint64_t op = log->RecordInvoke(client, leed::check::OpKind::kPut,
                                          ValueBook::KeyName(k), d, kValueSize, 0);
    log->RecordResponse(op, now, leed::check::Outcome::kOk, d, kValueSize);
  }
}

std::string SimSignatureText(const RefTrial& t) {
  std::ostringstream os;
  os.precision(17);
  const WindowResult& r = t.res;
  os << r.arrivals << ' ' << r.completed << ' ' << r.failed << ' ' << r.refused << ' '
     << r.scan_items << ' ' << r.power_w << ' ' << t.flash_ratio << '\n';
  for (const auto& k : r.kinds) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (double v : k.lat_us) h = HashString(std::to_string(v), h);
    os << k.arrivals << ' ' << k.ok << ' ' << k.failed << ' ' << h << '\n';
  }
  for (const auto& [name, v] : t.layers) {
    if (name.rfind("host.", 0) == 0 || name == "engine.trace_events_per_op") continue;
    os << name << '=' << v << '\n';
  }
  return os.str();
}

RefTrial RunRef(const Workload& w, uint64_t seed, bool traced, bool check = false) {
  RefTrial t;
  t.built = Build(w, seed, traced);
  leed::ClusterSim& cluster = *t.built.cluster;
  ValueBook book(kValueSize);
  book.Preloaded(w.keys);
  if (traced) RecordPreloadHistory(cluster, book, w.keys);
  OpStream stream(w.mix, w.keys, Mix(seed, 0x4ef));
  OpenLoop loop(cluster, book, stream, traced);
  LayerProbe probe;

  WindowSpec spec;
  spec.qps = w.ref_kqps * 1e3;
  spec.warmup = w.warmup;
  spec.window = w.window;
  spec.on_measure_start = [&] { probe.Start(cluster, *t.built.registry, t.built.ring.get()); };
  spec.on_measure_end = [&] {
    t.layers = probe.Finish(cluster, *t.built.registry, t.built.ring.get(), kValueSize);
  };
  t.res = loop.RunWindow(spec);
  t.flash_ratio = FlashBytesPerUserByte(cluster, stream.population());
  t.mismatches = loop.mismatches();
  t.first_mismatch = loop.first_mismatch();
  t.signature = HashString(SimSignatureText(t));

  if (check) {
    // Let every op finish so the history has no avoidable open entries.
    cluster.simulator().RunUntil(cluster.simulator().Now() + 100 * kMillisecond);
    const leed::check::HistoryLog* log = cluster.history();
    if (log->truncated()) {
      t.linearizable = false;
      t.check_summary = "history truncated";
    } else {
      // The checker's scan passes grow faster than linearly in the number
      // of scans, so scan-range checks only the reads invoked before the
      // cut. Every write is kept: a kept scan may still be in flight after
      // the cut and observe a write invoked after it. Dropping reads keeps
      // a linearizable history linearizable, so the check convicts no
      // correct run, and any violation among the kept reads still shows.
      const SimTime cut = t.res.measure_start + w.check_span;
      std::vector<leed::check::HistoryOp> ops;
      for (const auto& op : log->ops()) {
        const bool read = op.kind == leed::check::OpKind::kGet ||
                          op.kind == leed::check::OpKind::kScan;
        if (w.check_span == 0 || !read || op.invoke < cut) ops.push_back(op);
      }
      const double c0 = NowNs();
      const leed::check::CheckReport rep = leed::check::CheckHistory(ops);
      t.check_s = (NowNs() - c0) / 1e9;
      t.linearizable = rep.verdict != leed::check::Verdict::kViolation;
      t.check_summary = rep.Summary() + " (" + std::to_string(ops.size()) + " of " +
                        std::to_string(log->size()) + " ops, " + std::to_string(t.check_s) +
                        " s)";
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Capacity search: one cluster, successive open-loop probes; bisection on a
// geometric rate grid down to 2% steps.

struct Probe {
  double kqps = 0;
  bool pass = false;
  std::string why;
  double p99_us = 0;
  double fail_ratio = 0;
  double kq_per_joule = 0;
};

struct Search {
  std::vector<Probe> probes;
  double max_kqps = 0;
  double kq_per_joule = 0;
  double setup_s = 0;
  uint64_t swap_activations = 0;  // over every probe, overloaded ones too
  Built built;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};

Search RunSearch(const Workload& w, uint64_t seed) {
  Search s;
  s.built = Build(w, seed, false);
  s.setup_s = s.built.setup_s();
  leed::ClusterSim& cluster = *s.built.cluster;
  ValueBook book(kValueSize);
  book.Preloaded(w.keys);
  OpStream stream(w.mix, w.keys, Mix(seed, 0x5ea));
  OpenLoop loop(cluster, book, stream, false);

  auto probe = [&](double kqps) {
    // Each probe starts on a quiet cluster. Without the pause, one
    // overloaded scan-range probe made every lower rate fail after it (the
    // 200 ms drain was not enough for the cluster to recover).
    cluster.simulator().RunUntil(cluster.simulator().Now() + kProbeSettle);
    WindowSpec spec;
    spec.qps = kqps * 1e3;
    spec.warmup = w.probe_warmup;
    spec.window = w.probe_window;
    spec.abandon_early = true;
    spec.slo_us = w.slo_us;
    spec.max_fail_ratio = w.max_fail_ratio;
    // Little's law: a mean latency of twice the limit at this rate.
    spec.backlog_cap = static_cast<uint64_t>(2.0 * spec.qps * w.slo_us * 1e-6) + 64;
    spec.refuse_outstanding = spec.backlog_cap;
    const WindowResult r = loop.RunWindow(spec);
    Probe p;
    p.kqps = kqps;
    p.p99_us = r.abandoned ? 0 : r.OverallPercentileUs(0.99);
    p.fail_ratio = r.fail_ratio();
    if (r.abandoned) {
      p.why = "abandoned: " + r.abandon_reason;
    } else if (r.backlog_grew) {
      p.why = "backlog grew";
    } else if (p.p99_us > w.slo_us) {
      p.why = "p99 over limit";
    } else if (p.fail_ratio > w.max_fail_ratio) {
      p.why = "fail_ratio over limit";
    } else {
      p.pass = true;
      p.why = "meets limit";
      const double joules = r.power_w * static_cast<double>(w.probe_window) / 1e9;
      p.kq_per_joule = joules > 0 ? static_cast<double>(r.completed) / joules / 1e3 : 0;
    }
    s.probes.push_back(p);
    return p;
  };

  constexpr double kBracket = 1.25;
  constexpr double kResolution = 1.02;
  double lo = 0, hi = 0;
  Probe best;
  Probe first = probe(w.ref_kqps);
  if (first.pass) {
    lo = w.ref_kqps;
    best = first;
    for (int i = 0; i < 8 && hi == 0; ++i) {
      Probe p = probe(lo * kBracket);
      if (p.pass) {
        lo = p.kqps;
        best = p;
      } else {
        hi = p.kqps;
      }
    }
  } else {
    hi = w.ref_kqps;
    for (int i = 0; i < 8 && lo == 0; ++i) {
      Probe p = probe(hi / kBracket);
      if (p.pass) {
        lo = p.kqps;
        best = p;
      } else {
        hi = p.kqps;
      }
    }
  }
  while (lo > 0 && hi > 0 && hi / lo > kResolution) {
    Probe p = probe(std::sqrt(lo * hi));
    if (p.pass) {
      lo = p.kqps;
      best = p;
    } else {
      hi = p.kqps;
    }
  }
  for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
    s.swap_activations += cluster.node(i).leed_engine()->stats().swap_activations;
  }
  s.max_kqps = lo;
  s.kq_per_joule = best.kq_per_joule;
  s.mismatches = loop.mismatches();
  s.first_mismatch = loop.first_mismatch();
  return s;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void WriteReport(const Args& a, const std::string& suffix, const std::string& text) {
  if (a.report_dir.empty()) return;
  const std::string path =
      a.report_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + "-" + suffix;
  std::ofstream f(path, std::ios::trunc);
  if (f) f << text;
  if (f) std::printf("report: %s\n", path.c_str());
}

struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

const KindSamples& ReadKind(const Workload& w, const WindowResult& r) {
  return r.kind(w.mix.scan_reads ? Kind::kScan : Kind::kGet);
}

// Workload self-checks: fail loudly if a workload stops exercising the
// layer it exists for.
void WorkloadChecks(const Workload& w, const RefTrial& t, Checks* c) {
  const MetricMap& m = t.layers;
  auto get = [&](const char* k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  if (w.expect_no_compaction)
    c->Expect(get("store.compaction_runs") == 0, "hot-read ran compactions");
  if (w.expect_shipping)
    c->Expect(get("replication.reads_shipped_per_get") > 0, "no CRRS read shipping");
  if (w.expect_min_wraps > 0) {
    c->Expect(get("log.wraps_per_store") >= w.expect_min_wraps,
              "some store log wrapped less than " + std::to_string(w.expect_min_wraps) + " times");
    c->Expect(get("store.compaction_runs") > 0, "no compaction ran");
  }
  if (w.expect_scans) c->Expect(get("store.scan_items_per_scan") >= 1, "scans returned < 1 item each");
  c->Expect(t.mismatches == 0, "verification: " + t.first_mismatch);
  c->Expect(HasTail(ReadKind(w, t.res).lat_us.size(), 0.99),
            "read p99 has fewer than 10 samples beyond it");
  c->Expect(HasTail(t.res.kind(Kind::kPut).lat_us.size(), 0.95),
            "write p95 has fewer than 10 samples beyond it");
}

int RunEndToEnd(const Workload& w, const Args& a) {
  const double t_start = NowNs();
  Checks checks;
  std::vector<double> setups, host_rates;

  RefTrial ref = RunRef(w, a.seed, false);
  // Peak memory of one cluster's lifetime (set-up + reference window): later
  // trials rebuild in a heap the allocator may or may not have trimmed, so
  // the process-wide peak after them is not repeatable.
  const double peak_rss_mb = PeakRssMb();
  setups.push_back(ref.built.setup_s());
  host_rates.push_back(static_cast<double>(ref.res.completed) / ref.res.host_cpu_s);
  WorkloadChecks(w, ref, &checks);
  uint64_t attempted = ref.res.arrivals, failed = ref.res.failed;
  ref.built = Built{};  // free the cluster before the next one

  Search search = RunSearch(w, a.seed);
  setups.push_back(search.setup_s);
  checks.Expect(search.mismatches == 0, "verification: " + search.first_mismatch);
  checks.Expect(search.max_kqps > 0, "no probed rate met the latency limit");
  search.built = Built{};

  // Repeat the reference trial for host timing while another fits in
  // --seconds; every repeat must reproduce the simulated results byte for
  // byte.
  int reps = 0;
  double rep_s = 0;
  while (reps < 1 || (NowNs() - t_start) / 1e9 + rep_s < a.seconds) {
    const double r0 = NowNs();
    RefTrial again = RunRef(w, a.seed, false);
    rep_s = (NowNs() - r0) / 1e9;
    setups.push_back(again.built.setup_s());
    host_rates.push_back(static_cast<double>(again.res.completed) / again.res.host_cpu_s);
    checks.Expect(again.signature == ref.signature, "same seed gave different simulated results");
    attempted += again.res.arrivals;
    failed += again.res.failed;
    ++reps;
  }

  // Set-up is short and noisy next to the windows; time more builds until
  // its median rests on enough samples and enough seconds.
  auto sum = [](const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); };
  while (setups.size() < kMinSetups ||
         (sum(setups) < kMinSetupSeconds && setups.size() < kMaxSetups)) {
    setups.push_back(Build(w, a.seed, false).setup_s());
  }

  const WindowResult& r = ref.res;
  const KindSamples& rd = ReadKind(w, r);
  const KindSamples& wr = r.kind(Kind::kPut);
  std::vector<Metric> e2e = {
      {"read_p50_us", Percentile(rd.lat_us, 0.50), "us", rd.lat_us.size()},
      {"read_p99_us", Percentile(rd.lat_us, 0.99), "us", rd.lat_us.size()},
      {"write_p90_us", Percentile(wr.lat_us, 0.90), "us", wr.lat_us.size()},
      {"write_p95_us", Percentile(wr.lat_us, 0.95), "us", wr.lat_us.size()},
      {"max_kqps_at_slo", search.max_kqps, "KQPS", search.probes.size()},
      {"kq_per_joule", search.kq_per_joule, "KQ/J", search.probes.size()},
      {"served_ratio", 1.0 - r.fail_ratio(), "ratio", r.arrivals},
      {"flash_bytes_per_user_byte", ref.flash_ratio, "ratio", 1},
      {"setup_s", Median(setups), "s", setups.size()},
      {"peak_rss_mb", peak_rss_mb, "MiB", 1},
  };

  std::ostringstream rep;
  rep.precision(6);
  rep << w.name << " seed=" << a.seed << " end-to-end (open loop, Poisson, reference rate "
      << w.ref_kqps << " KQPS, latency limit " << w.slo_us << " us)\n";
  // Every op kind, with the highest percentiles that have at least ten
  // samples beyond them (the gated metrics are chosen for steadiness, see
  // METHODOLOGY.md; the rest is printed here).
  for (Kind k : {Kind::kGet, Kind::kPut, Kind::kScan}) {
    const KindSamples& ks = r.kind(k);
    if (ks.arrivals == 0) continue;
    rep << "  " << KindName(k) << " n=" << ks.lat_us.size() << " arrivals=" << ks.arrivals
        << " failed=" << ks.failed << " refused=" << ks.refused << " |";
    for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
      if (q > 0.5 && !HasTail(ks.lat_us.size(), q)) break;
      rep << " " << KindName(k) << "_p" << q * 100 << "_us=" << Percentile(ks.lat_us, q);
    }
    rep << "\n";
  }
  rep << "  fail_ratio " << r.fail_ratio() << " ratio  n=" << r.arrivals << " (refused "
      << r.refused << ", never finished " << r.open_at_end << ")  generator lateness max "
      << r.max_lateness_us << " us\n";
  for (const Metric& m : e2e) {
    rep << "  " << m.name << " " << m.value << " " << m.unit << "  n=" << m.samples << "\n";
  }
  rep << "  self-check figures:";
  for (const char* k : {"store.compaction_runs", "log.wraps_per_store", "engine.swap_activations",
                        "replication.reads_shipped_per_get", "store.scan_items_per_scan"}) {
    rep << " " << k << "=" << (ref.layers.count(k) ? ref.layers.at(k) : 0.0);
  }
  rep << " search.swap_activations=" << search.swap_activations << "\n";
  rep << "  capacity probes:";
  for (const Probe& p : search.probes) {
    rep << " [" << p.kqps << " KQPS " << (p.pass ? "pass" : "fail") << " p99=" << p.p99_us
        << " (" << p.why << ")]";
  }
  rep << "\n  setup_s per cluster:";
  for (double v : setups) rep << " " << v;
  // Host speed is reported, not gated: on a shared machine even process
  // CPU time moved 2x between runs of the same code (see METHODOLOGY.md).
  // The traced run reports it as host.ops_per_s.
  rep << "\n  host_ops_per_s " << Median(host_rates) << " ops/s (CPU time, not gated) per trial:";
  for (double v : host_rates) rep << " " << v;
  rep << "\n  host reps=" << host_rates.size() << " wall=" << (NowNs() - t_start) / 1e9 << " s\n";
  for (const auto& f : checks.failures) rep << "  CHECK FAILED: " << f << "\n";
  std::fputs(rep.str().c_str(), stdout);
  WriteReport(a, "e2e.txt", rep.str());

  const bool correct = checks.failures.empty();
  std::printf("%s\n", ResultJson(correct, attempted, failed, e2e).c_str());
  return correct ? 0 : 1;
}

int RunTraced(const Workload& w, const Args& a) {
  const double t_start = NowNs();
  Checks checks;
  std::vector<double> bootstraps, preloads, plain_rates, traced_rates, ns_per_event;
  RefTrial first_traced;
  uint64_t attempted = 0, failed = 0, plain_signature = 0;
  double events_per_op = 0;
  bool have_traced = false;

  double pair_s = 0;
  while (!have_traced || (NowNs() - t_start) / 1e9 + pair_s < a.seconds) {
    const double p0 = NowNs();
    RefTrial plain = RunRef(w, a.seed, false);
    bootstraps.push_back(plain.built.bootstrap_s);
    preloads.push_back(plain.built.preload_s);
    plain_rates.push_back(static_cast<double>(plain.res.completed) / plain.res.host_cpu_s);
    ns_per_event.push_back(plain.res.host_cpu_s * 1e9 / static_cast<double>(plain.res.events));
    events_per_op = static_cast<double>(plain.res.events) / static_cast<double>(plain.res.completed);
    if (plain_signature == 0) plain_signature = plain.signature;
    checks.Expect(plain.signature == plain_signature, "same seed gave different simulated results");
    plain.built = Built{};

    RefTrial traced = RunRef(w, a.seed, true, /*check=*/!have_traced);
    const double check_s = traced.check_s;
    bootstraps.push_back(traced.built.bootstrap_s);
    preloads.push_back(traced.built.preload_s);
    traced_rates.push_back(static_cast<double>(traced.res.completed) / traced.res.host_cpu_s);
    checks.Expect(traced.signature == plain_signature, "tracing changed the simulated results");
    attempted += traced.res.arrivals;
    failed += traced.res.failed;
    traced.built = Built{};
    if (!have_traced) {
      first_traced = std::move(traced);
      have_traced = true;
    }
    pair_s = (NowNs() - p0) / 1e9 - check_s;  // only the first pair checks
  }

  WorkloadChecks(w, first_traced, &checks);
  checks.Expect(first_traced.linearizable, "linearizability: " + first_traced.check_summary);

  MetricMap m = first_traced.layers;
  m["sim.events_per_op"] = events_per_op;
  m["sim.host_ns_per_event"] = Median(ns_per_event);
  m["host.setup.bootstrap_s"] = Median(bootstraps);
  m["host.setup.preload_s"] = Median(preloads);
  m["host.ops_per_s"] = Median(plain_rates);
  AddHostSpanMetrics(first_traced.res, &m);
  m["host.trace_overhead"] = Median(plain_rates) / Median(traced_rates);

  std::vector<Metric> out;
  std::ostringstream rep;
  rep.precision(6);
  rep << w.name << " seed=" << a.seed << " per-layer breakdown (traced reference window, "
      << w.ref_kqps << " KQPS)\n";
  rep << "  " << std::left;
  char line[256];
  std::snprintf(line, sizeof(line), "%-36s %14s %-10s %s\n", "metric", "value", "unit", "moves");
  rep << line;
  for (const LayerMetricSpec& spec : LayerMetricSpecs()) {
    const double v = m.count(spec.name) ? m.at(spec.name) : 0.0;
    out.push_back({spec.name, v, spec.unit, 1});
    std::snprintf(line, sizeof(line), "  %-36s %14.6g %-10s %s\n", spec.name, v, spec.unit,
                  spec.moves);
    rep << line;
  }
  rep << "  linearizability: " << first_traced.check_summary << "\n";
  rep << "  traced pairs=" << traced_rates.size() << " wall=" << (NowNs() - t_start) / 1e9
      << " s\n";
  for (const auto& f : checks.failures) rep << "  CHECK FAILED: " << f << "\n";
  std::fputs(rep.str().c_str(), stdout);
  WriteReport(a, "layers.txt", rep.str());

  const bool correct = checks.failures.empty();
  std::printf("%s\n", ResultJson(correct, attempted, failed, out).c_str());
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--report-dir") {
      a->report_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr, "usage: leedbench --workload W --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (a.workload == w.name) return a.trace ? RunTraced(w, a) : RunEndToEnd(w, a);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
  return 2;
}
