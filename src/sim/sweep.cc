#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace leed::sim {

uint32_t ResolveJobs(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : static_cast<uint32_t>(hw);
}

void ParallelFor(uint32_t count, uint32_t jobs,
                 const std::function<void(uint32_t)>& task) {
  const uint32_t threads = std::min(ResolveJobs(jobs), count);
  if (threads <= 1) {
    for (uint32_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::atomic<uint32_t> cursor{0};
  auto drain = [&] {
    for (;;) {
      const uint32_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      task(i);
    }
  };
  // The caller drains the same cursor as the spawned threads, so a sweep
  // of J jobs never leaves the calling core idle. jthread joins when
  // `workers` goes out of scope, also if a task throws on this thread;
  // thread start and join are the happens-before edges that publish each
  // task's writes to the caller.
  std::vector<std::jthread> workers;
  workers.reserve(threads - 1);
  for (uint32_t t = 1; t < threads; ++t) workers.emplace_back(drain);
  drain();
}

}  // namespace leed::sim
