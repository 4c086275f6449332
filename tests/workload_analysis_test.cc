// Tests for the YCSB generator and the analysis module (balls-into-bins,
// index-memory arithmetic).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string_view>

#include "analysis/balls_into_bins.h"
#include "analysis/index_memory.h"
#include "common/hash.h"
#include "common/units.h"
#include "sim/platform.h"
#include "workload/ycsb.h"

namespace leed {
namespace {

using workload::Mix;
using workload::OpKind;
using workload::YcsbConfig;
using workload::YcsbGenerator;

// ---------------------------------------------------------------------------
// YCSB
// ---------------------------------------------------------------------------

std::map<OpKind, int> SampleMix(Mix mix, int n = 40000) {
  YcsbConfig cfg;
  cfg.mix = mix;
  cfg.num_keys = 10000;
  cfg.seed = 5;
  YcsbGenerator gen(cfg);
  std::map<OpKind, int> counts;
  for (int i = 0; i < n; ++i) counts[gen.Next().kind]++;
  return counts;
}

TEST(YcsbTest, MixRatiosMatchSpec) {
  auto a = SampleMix(Mix::kA);
  EXPECT_NEAR(a[OpKind::kRead] / 40000.0, 0.50, 0.02);
  EXPECT_NEAR(a[OpKind::kUpdate] / 40000.0, 0.50, 0.02);

  auto b = SampleMix(Mix::kB);
  EXPECT_NEAR(b[OpKind::kRead] / 40000.0, 0.95, 0.01);

  auto c = SampleMix(Mix::kC);
  EXPECT_EQ(c[OpKind::kRead], 40000);

  auto d = SampleMix(Mix::kD);
  EXPECT_NEAR(d[OpKind::kInsert] / 40000.0, 0.05, 0.01);
  EXPECT_EQ(d[OpKind::kUpdate], 0);

  auto f = SampleMix(Mix::kF);
  EXPECT_NEAR(f[OpKind::kReadModifyWrite] / 40000.0, 0.50, 0.02);

  auto wr = SampleMix(Mix::kWriteOnly);
  EXPECT_EQ(wr[OpKind::kUpdate], 40000);
}

TEST(YcsbTest, ReadFractionsMatchMixes) {
  YcsbConfig cfg;
  cfg.mix = Mix::kB;
  EXPECT_DOUBLE_EQ(YcsbGenerator(cfg).ReadFraction(), 0.95);
  cfg.mix = Mix::kWriteOnly;
  EXPECT_DOUBLE_EQ(YcsbGenerator(cfg).ReadFraction(), 0.0);
}

TEST(YcsbTest, KeysStayInPopulation) {
  YcsbConfig cfg;
  cfg.mix = Mix::kA;
  cfg.num_keys = 500;
  YcsbGenerator gen(cfg);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.Next().key_id, 500u);
}

TEST(YcsbTest, WorkloadDGrowsPopulationAndReadsRecent) {
  YcsbConfig cfg;
  cfg.mix = Mix::kD;
  cfg.num_keys = 1000;
  cfg.seed = 3;
  YcsbGenerator gen(cfg);
  uint64_t recent_reads = 0, total_reads = 0;
  for (int i = 0; i < 20000; ++i) {
    auto op = gen.Next();
    if (op.kind == OpKind::kInsert) {
      EXPECT_EQ(op.key_id, gen.population() - 1);  // fresh key
    } else {
      ++total_reads;
      if (op.key_id + 100 >= gen.population()) ++recent_reads;
    }
  }
  EXPECT_GT(gen.population(), 1000u);
  // "Latest" distribution: a large share of reads hit the newest 100 keys.
  EXPECT_GT(static_cast<double>(recent_reads) / total_reads, 0.3);
}

TEST(YcsbTest, ZipfSkewConcentratesRequests) {
  YcsbConfig hot;
  hot.mix = Mix::kC;
  hot.num_keys = 100000;
  hot.zipf_theta = 0.99;
  YcsbGenerator gen(hot);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[gen.Next().key_id]++;
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 500);  // ~> 1% of requests on the hottest key
}

TEST(YcsbTest, KeyNamesAndValuesDeterministic) {
  EXPECT_EQ(YcsbGenerator::KeyName(42), "user000000000042");
  YcsbConfig cfg;
  cfg.value_size = 256;
  YcsbGenerator gen(cfg);
  auto v1 = gen.MakeValue(7, 0);
  auto v2 = gen.MakeValue(7, 0);
  auto v3 = gen.MakeValue(7, 1);
  EXPECT_EQ(v1.size(), 256u);
  EXPECT_EQ(v1, v2);
  EXPECT_NE(v1, v3);
}

// Golden digests pin MakeValue's exact bytes: every integration test compares
// MakeValue with itself, so only these catch a generator that drifts (tail
// bytes of sizes that are not a multiple of 8 included). Each row is
// {value_size, version, key_id, Fnv1a64(bytes)}.
TEST(YcsbTest, MakeValueMatchesGoldenDigests) {
  struct Golden {
    uint32_t size;
    uint32_t version;
    uint64_t key_id;
    uint64_t digest;
  };
  const Golden kGolden[] = {
      {1, 0, 0, 0xaf645f4c8602cb25ULL},
      {1, 0, 42, 0xaf64224c8602637eULL},
      {1, 0, 19999, 0xaf645e4c8602c972ULL},
      {1, 1, 0, 0xaf64254c86026897ULL},
      {1, 1, 42, 0xaf64524c8602b50eULL},
      {1, 1, 19999, 0xaf63e84c860200f0ULL},
      {1, 7, 0, 0xaf63f64c860218baULL},
      {1, 7, 42, 0xaf646b4c8602df89ULL},
      {1, 7, 19999, 0xaf64044c86023084ULL},
      {7, 0, 0, 0xbb72f4bf84c9428dULL},
      {7, 0, 42, 0x521c61ef50f742ffULL},
      {7, 0, 19999, 0xa0fa3316ff1fe508ULL},
      {7, 1, 0, 0xdf6c3a0b7f53d0a4ULL},
      {7, 1, 42, 0xe4442a734cb977a3ULL},
      {7, 1, 19999, 0x5cdca79e2ff8fc6fULL},
      {7, 7, 0, 0x6f7b8ef7bbb137aaULL},
      {7, 7, 42, 0x8658eed9013916c7ULL},
      {7, 7, 19999, 0x0ae212323abf95ddULL},
      {8, 0, 0, 0x4d98d16ea1fcbdd0ULL},
      {8, 0, 42, 0x7d7cd4a69425dbd1ULL},
      {8, 0, 19999, 0xa909e813833247c8ULL},
      {8, 1, 0, 0xf8b72c895b6b5c31ULL},
      {8, 1, 42, 0x994ba4eb5f261399ULL},
      {8, 1, 19999, 0xc3ed14cb8414a5d9ULL},
      {8, 7, 0, 0x202bb0f3ee21bea6ULL},
      {8, 7, 42, 0x82340cbd1400b6f6ULL},
      {8, 7, 19999, 0x3dba7559d38b197eULL},
      {9, 0, 0, 0xd76986fd40764478ULL},
      {9, 0, 42, 0x60f8e40dbc541097ULL},
      {9, 0, 19999, 0x6e1ccd27ee6f6a1cULL},
      {9, 1, 0, 0x0a9d0966576df054ULL},
      {9, 1, 42, 0xa19c5af2adb27dadULL},
      {9, 1, 19999, 0x007f93d16f14c85aULL},
      {9, 7, 0, 0xcbfc1b7da3569337ULL},
      {9, 7, 42, 0x3f288448fd36bcedULL},
      {9, 7, 19999, 0x6eef2aa2755cc659ULL},
      {128, 0, 0, 0x8fbbc932fc69c1cbULL},
      {128, 0, 42, 0xea943a5d9dd9ae52ULL},
      {128, 0, 19999, 0x9bc27c4d88a651c6ULL},
      {128, 1, 0, 0x66fc4a11c2c28ac7ULL},
      {128, 1, 42, 0x6b68475ce7a98078ULL},
      {128, 1, 19999, 0xf4fa17a8c30782a8ULL},
      {128, 7, 0, 0x2aa65aa4d929b9b0ULL},
      {128, 7, 42, 0x110d855ad94bad99ULL},
      {128, 7, 19999, 0xaa577333f08c5030ULL},
      {1023, 0, 0, 0xe64dbda6bab0d3f1ULL},
      {1023, 0, 42, 0xc8fa7ef1f9adc45aULL},
      {1023, 0, 19999, 0x3bf2ca4c7a8f24d8ULL},
      {1023, 1, 0, 0x2f724883bb0c6b8cULL},
      {1023, 1, 42, 0x5c8c35fc64cd10e9ULL},
      {1023, 1, 19999, 0x6abc3b2f314f7d98ULL},
      {1023, 7, 0, 0x4831ca8fd6b93ae5ULL},
      {1023, 7, 42, 0x13bb628ed9758c18ULL},
      {1023, 7, 19999, 0x4b813054c7c3d510ULL},
      {1024, 0, 0, 0x06ecb24f3a774750ULL},
      {1024, 0, 42, 0x2f6a012b42448d24ULL},
      {1024, 0, 19999, 0x6cb243f4413b0c4cULL},
      {1024, 1, 0, 0xab9c93d6d61a6d54ULL},
      {1024, 1, 42, 0x0f5032df4872fa35ULL},
      {1024, 1, 19999, 0xad55b030ca119badULL},
      {1024, 7, 0, 0x65d62f69dcbf3be7ULL},
      {1024, 7, 42, 0xfcf480bb82bcf198ULL},
      {1024, 7, 19999, 0x105ac60f71c40912ULL}
  };
  for (const Golden& g : kGolden) {
    YcsbConfig cfg;
    cfg.num_keys = 16;  // MakeValue ignores it; keeps the Zipf set-up cheap
    cfg.value_size = g.size;
    YcsbGenerator gen(cfg);
    auto v = gen.MakeValue(g.key_id, g.version);
    ASSERT_EQ(v.size(), g.size);
    EXPECT_EQ(Fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()), v.size())),
              g.digest)
        << "size " << g.size << " version " << g.version << " key " << g.key_id;
  }
}

TEST(YcsbTest, MixNames) {
  EXPECT_STREQ(workload::MixName(Mix::kA), "YCSB-A");
  EXPECT_STREQ(workload::MixName(Mix::kWriteOnly), "YCSB-WR");
}

// ---------------------------------------------------------------------------
// Balls into bins (Table 1)
// ---------------------------------------------------------------------------

TEST(BallsIntoBinsTest, EstimateMatchesFormula) {
  auto e = analysis::EstimateMaxLoad(1e6, 100);
  EXPECT_DOUBLE_EQ(e.mean, 10000.0);
  EXPECT_GT(e.deviation, 0.0);
  EXPECT_NEAR(e.deviation, std::sqrt(2.0 * 1e6 * std::log(100.0) / 100.0), 1.0);
}

TEST(BallsIntoBinsTest, FewerBinsMeansLargerDeviationShare) {
  // Table 1's point: 3 JBOFs see a larger max-load overshoot than 100
  // embedded nodes, relative to the mean.
  auto embedded = analysis::EstimateMaxLoad(1e6, 100);
  auto jbof = analysis::EstimateMaxLoad(1e6, 3);
  EXPECT_GT(jbof.deviation / jbof.mean, embedded.deviation / embedded.mean * 0);
  EXPECT_GT(jbof.mean, embedded.mean);
  // Absolute deviation is much larger for the 3-node cluster.
  EXPECT_GT(jbof.deviation, embedded.deviation);
}

TEST(BallsIntoBinsTest, SimulationBracketedByEstimate) {
  Rng rng(17);
  double sim_max = analysis::SimulateMaxLoad(100000, 10, 20, rng);
  auto est = analysis::EstimateMaxLoad(100000, 10);
  EXPECT_GT(sim_max, est.mean);               // above the mean...
  EXPECT_LT(sim_max, est.mean + 2 * est.deviation);  // ...within the bound
}

// ---------------------------------------------------------------------------
// Index memory (Challenge C1 / Table 3 capacity)
// ---------------------------------------------------------------------------

TEST(IndexMemoryTest, FawnCappedByDram) {
  auto plat = sim::StingrayJbof();
  auto r = analysis::MaxCapacity(analysis::FawnIndexModel(), plat.dram_bytes,
                                 0.875, plat.TotalFlashBytes(), 256);
  // Paper Table 3: FAWN-JBOF reaches only ~7.7% of flash for 256B objects.
  EXPECT_GT(r.fraction_of_flash, 0.04);
  EXPECT_LT(r.fraction_of_flash, 0.12);
}

TEST(IndexMemoryTest, KvellCappedHarder) {
  auto plat = sim::StingrayJbof();
  auto r256 = analysis::MaxCapacity(analysis::KvellIndexModel(256), plat.dram_bytes,
                                    0.875, plat.TotalFlashBytes(), 256);
  auto r1k = analysis::MaxCapacity(analysis::KvellIndexModel(1024), plat.dram_bytes,
                                   0.875, plat.TotalFlashBytes(), 1024);
  // Paper: 0.9% / 2.6% of flash (33GB / 100GB).
  EXPECT_LT(r256.fraction_of_flash, 0.02);
  EXPECT_LT(r1k.fraction_of_flash, 0.05);
  EXPECT_GT(r1k.usable_bytes, r256.usable_bytes);
}

TEST(IndexMemoryTest, LeedUnlocksNearlyAllFlash) {
  auto plat = sim::StingrayJbof();
  auto model = analysis::LeedIndexModel(256, 4096, 16, 4);
  EXPECT_LT(model.bytes_per_object, 0.1);  // Challenge C1 target: << 0.5 B
  auto r = analysis::MaxCapacity(model, plat.dram_bytes, 0.875,
                                 plat.TotalFlashBytes(), 256);
  // Paper: 95.4% for 256B (flash-overhead-bound, not DRAM-bound).
  EXPECT_GT(r.fraction_of_flash, 0.85);
}

TEST(IndexMemoryTest, OrderingMatchesTable3) {
  auto plat = sim::StingrayJbof();
  for (uint32_t size : {256u, 1024u}) {
    auto fawn = analysis::MaxCapacity(analysis::FawnIndexModel(), plat.dram_bytes,
                                      0.875, plat.TotalFlashBytes(), size);
    auto kvell = analysis::MaxCapacity(analysis::KvellIndexModel(size),
                                       plat.dram_bytes, 0.875,
                                       plat.TotalFlashBytes(), size);
    auto leed = analysis::MaxCapacity(analysis::LeedIndexModel(size, 4096, 16, 4),
                                      plat.dram_bytes, 0.875,
                                      plat.TotalFlashBytes(), size);
    EXPECT_LT(kvell.fraction_of_flash, fawn.fraction_of_flash) << size;
    EXPECT_LT(fawn.fraction_of_flash, leed.fraction_of_flash) << size;
  }
}

}  // namespace
}  // namespace leed
