// Seed-parallel sweep driver (docs/PARALLEL_SIM.md).
//
// Every multi-seed harness in this repo — the nemesis consistency sweeps,
// replay comparisons, multi-seed benches — runs N *independent* simulations
// that only ever meet again at the report. That is embarrassingly parallel,
// as long as each job is self-contained: its own sim::Simulator, its own
// obs::Registry and obs::TraceRing (never the process-wide defaults), its
// own output files. The driver here supplies the threads and the
// determinism discipline:
//
//   * work items are addressed by index; callers write results into
//     index-addressed slots, so aggregation order is a function of the
//     sweep definition, never of thread scheduling;
//   * the driver takes no locks — tasks that need shared state must bring
//     their own synchronization (and should not: per-index isolation is
//     the point);
//   * jobs=1 degenerates to a plain loop on the calling thread with no
//     threads created, which is the replay/debug oracle for the sweep
//     layer itself. A sweep's outputs must be byte-identical for every
//     jobs value — CI's replay gate enforces this end to end.

#pragma once

#include <cstdint>
#include <functional>

namespace leed::sim {

// Resolve a requested --jobs value: 0 means "use every host core"
// (hardware_concurrency, itself never 0), anything else passes through.
uint32_t ResolveJobs(uint32_t requested);

// Run task(0..count-1) on up to `jobs` threads (including the caller) and
// return when every index completed. jobs is resolved through ResolveJobs;
// min(jobs, count) - 1 threads are spawned for this call and joined before
// it returns. Indices are handed out by an atomic cursor, so which thread
// runs which index is nondeterministic: anything a task writes must be
// index-addressed. jobs=1 (or count <= 1) is a plain loop on the calling
// thread with no threads created — the serial oracle path.
void ParallelFor(uint32_t count, uint32_t jobs,
                 const std::function<void(uint32_t)>& task);

}  // namespace leed::sim
