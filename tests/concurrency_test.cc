// Multi-threaded stress test for the obs Registry's cold paths
// (registration / lookup / snapshot under a lock, instruments
// single-writer): the one lock-guarded structure that components may reach
// from different threads.
//
// This is part of the workload behind the TSan CI job (LEED_SANITIZE=thread,
// Debug build), where TSan proves the lock is sufficient. It also runs in
// the plain build as an ordinary correctness stress test.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace leed {
namespace {

// ---------------------------------------------------------------------------
// Registry: concurrent registration of distinct and identical names, each
// thread incrementing only the counters it owns (instruments are
// single-writer by contract; the *registry* paths are what is shared).
// ---------------------------------------------------------------------------

TEST(RegistryConcurrencyTest, ConcurrentRegistrationAndSnapshot) {
  obs::Registry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  constexpr uint64_t kIncrements = 1000;

  // Phase 1 — the registry's synchronized cold paths: threads race to
  // register distinct and identical names while also snapshotting (map
  // mutation vs. map iteration). No instrument is written in this phase:
  // instruments are single-writer by contract, and a snapshot may not
  // run concurrently with a writer.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // A shared name: all threads race to register it, exactly one
      // instrument must result.
      (void)registry.GetGauge("stress.shared");
      for (int i = 0; i < kPerThread; ++i) {
        (void)registry.GetCounter(
            "stress.t" + std::to_string(t) + ".c" + std::to_string(i));
        if (i % 16 == 0) {
          const std::string snap = registry.SnapshotJson();
          EXPECT_FALSE(snap.empty());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  workers.clear();

  // Phase 2 — hot path: each thread increments only the counters it
  // owns; lookups of other threads' registrations run concurrently.
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Counter* c = registry.GetCounter(
            "stress.t" + std::to_string(t) + ".c" + std::to_string(i));
        for (uint64_t n = 0; n < kIncrements; ++n) c->Inc();
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(registry.size(),
            static_cast<size_t>(kThreads * kPerThread) + 1);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      obs::Counter* c = registry.GetCounter(
          "stress.t" + std::to_string(t) + ".c" + std::to_string(i));
      EXPECT_EQ(c->value(), kIncrements);
    }
  }
}

}  // namespace
}  // namespace leed
