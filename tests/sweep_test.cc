// Tests for the seed-parallel sweep driver (sim/sweep.h, docs/PARALLEL_SIM.md):
//
//   * ParallelFor — index coverage and the jobs=1 serial-oracle contract;
//   * end to end: nemesis sweeps must produce identical verdicts and
//     history bytes for every --jobs value — the unit-level form of CI's
//     replay gate.
//
// Wall-clock speedup is deliberately NOT asserted here: these tests run on
// arbitrary (possibly single-core) machines. The speedup gates live in CI,
// which pins its runner shape.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "check/nemesis.h"
#include "sim/sweep.h"

namespace leed {
namespace {

TEST(SweepTest, ResolveJobs) {
  EXPECT_EQ(sim::ResolveJobs(1), 1u);
  EXPECT_EQ(sim::ResolveJobs(3), 3u);
  EXPECT_EQ(sim::ResolveJobs(17), 17u);
  // 0 = "all host cores": whatever that resolves to, it is never zero.
  EXPECT_GE(sim::ResolveJobs(0), 1u);
}

TEST(SweepTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (uint32_t jobs : {1u, 2u, 4u}) {
    for (uint32_t count : {0u, 1u, 7u, 64u}) {
      std::vector<std::atomic<uint32_t>> hits(count);
      sim::ParallelFor(count, jobs, [&hits](uint32_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1u)
            << "jobs=" << jobs << " count=" << count << " index=" << i;
      }
    }
  }
}

TEST(SweepTest, SerialJobsRunInOrderOnCallingThread) {
  // jobs=1 is the replay/debug oracle: a plain loop, no threads, index
  // order. The trace vector is unsynchronized on purpose — TSan would
  // flag any worker thread touching it.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint32_t> order;
  sim::ParallelFor(16, 1, [&](uint32_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------------------------
// End to end: the replay-gate property at unit-test scale.
// ---------------------------------------------------------------------------

std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing " << path;
  if (!f) return {};
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Nemesis sweeps must produce identical per-seed results and identical
// history bytes for every jobs value. "crash" covers crash/restart faults;
// "churn" covers join/leave membership churn (vnode moves cancel and
// re-arm timers).
TEST(NemesisParallelTest, JobsAreByteIdentical) {
  for (const std::string& plan : {std::string("crash"), std::string("churn")}) {
    std::vector<check::NemesisResult> results;
    std::vector<std::string> histories;
    for (const uint32_t jobs : {1u, 2u}) {
      check::NemesisOptions opt;
      opt.base_seed = 7;
      opt.seeds = 2;
      opt.plan = plan;
      opt.num_keys = 8;
      opt.num_clients = 2;
      opt.ops_per_client = 60;
      opt.run_for = 120 * kMillisecond;
      opt.jobs = jobs;
      opt.history_out = std::string(testing::TempDir()) + "/nemesis_" + plan +
                        "_j" + std::to_string(jobs) + ".history";
      results.push_back(check::RunNemesisSweep(opt));
      histories.push_back(Slurp(opt.history_out));
      ASSERT_FALSE(histories.back().empty());
    }

    const check::NemesisResult& base = results[0];
    ASSERT_EQ(base.seeds.size(), 2u);
    for (size_t v = 1; v < results.size(); ++v) {
      const check::NemesisResult& r = results[v];
      ASSERT_EQ(r.seeds.size(), base.seeds.size()) << "jobs index " << v;
      for (size_t i = 0; i < base.seeds.size(); ++i) {
        EXPECT_EQ(r.seeds[i].seed, base.seeds[i].seed);
        EXPECT_EQ(r.seeds[i].verdict, base.seeds[i].verdict)
            << "plan=" << plan << " jobs index " << v << " seed index " << i;
        EXPECT_EQ(r.seeds[i].ops, base.seeds[i].ops);
        EXPECT_EQ(r.seeds[i].completed, base.seeds[i].completed);
        EXPECT_EQ(r.seeds[i].steps, base.seeds[i].steps);
        EXPECT_EQ(r.seeds[i].violations.size(), base.seeds[i].violations.size());
      }
      EXPECT_EQ(r.violating_seeds, base.violating_seeds);
      EXPECT_EQ(r.inconclusive_seeds, base.inconclusive_seeds);
      EXPECT_EQ(histories[v], histories[0])
          << "plan=" << plan << " jobs index " << v
          << ": history bytes diverged from the serial oracle";
    }
  }
}

}  // namespace
}  // namespace leed
