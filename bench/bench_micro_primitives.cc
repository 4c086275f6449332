// Microbenchmarks (google-benchmark) for the hot primitives on the real
// host CPU: hashing, Zipf sampling, histogram recording, CRC-32, bucket
// codec, value generation and the discrete-event loop itself. These bound the
// simulator's own overhead and the per-op cost of the data structures a
// SmartNIC core would actually execute.

#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "sim/simulator.h"
#include "store/format.h"
#include "workload/ycsb.h"

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

// One bucket (512 B) and one page-sized record (4 KiB).
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  Rng rng(3);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
    benchmark::ClobberMemory();  // the buffer may have changed: no hoisting
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(512)->Arg(4096);

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

void BM_MakeValue(benchmark::State& state) {
  workload::YcsbConfig cfg;
  cfg.num_keys = 1000;
  cfg.value_size = 1024;
  workload::YcsbGenerator gen(cfg);
  uint64_t key = 0;
  for (auto _ : state) {
    auto v = gen.MakeValue(key++ % cfg.num_keys);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * cfg.value_size);
}
BENCHMARK(BM_MakeValue);

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
