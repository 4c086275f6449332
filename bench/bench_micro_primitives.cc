// Microbenchmarks (google-benchmark) for the hot primitives on the real
// host CPU: hashing, Zipf sampling, histogram recording, bucket codec,
// and the discrete-event loop itself. These bound the
// simulator's own overhead and the per-op cost of the data structures a
// SmartNIC core would actually execute.

#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "sim/simulator.h"
#include "store/format.h"

namespace leed {
namespace {

void BM_HashKey(benchmark::State& state) {
  std::string key = "user000000012345";
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= HashKey(key, 7);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HashKey);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(1'000'000, 0.99);
  Rng rng(1);
  uint64_t sink = 0;
  for (auto _ : state) sink ^= zipf.Next(rng);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ZipfSample);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(2);
  for (auto _ : state) h.Record(static_cast<double>(rng.NextBounded(100000)));
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_BucketEncodeDecode(benchmark::State& state) {
  store::Bucket b;
  for (int i = 0; i < 12; ++i) {
    store::KeyItem it;
    it.key = "user00000000" + std::to_string(1000 + i);
    it.value_len = 256;
    it.value_offset = static_cast<uint64_t>(i) * 512;
    b.Upsert(512, std::move(it));
  }
  for (auto _ : state) {
    auto enc = store::EncodeBucket(b, 512);
    auto dec = store::DecodeBucket(enc.value(), 0, 512);
    benchmark::DoNotOptimize(dec.value().items.size());
  }
}
BENCHMARK(BM_BucketEncodeDecode);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      s.Schedule(i, [&fired] { ++fired; });
    }
    s.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventLoop);

}  // namespace
}  // namespace leed

BENCHMARK_MAIN();
