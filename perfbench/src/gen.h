// Input generation for the benchmark: a seeded RNG, YCSB's scrambled Zipf
// key chooser, and the open-loop op stream (Poisson arrivals, op mix, keys,
// scan lengths). Everything here is the benchmark's own code, so the system
// under test receives only the generated operations; the same seed always
// yields the same stream.

#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

namespace perfbench {

// splitmix64: tiny, fast and good enough for workload draws.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

inline uint64_t Fnv64(uint64_t v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// YCSB ScrambledZipfianGenerator over [0, n): Gray et al.'s rejection-free
// Zipf draw, with ranks hashed across the key space so hot keys land on
// different chains.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return Fnv64(rank) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

enum class Kind : uint8_t { kGet, kPut, kScan };

inline const char* KindName(Kind k) {
  switch (k) {
    case Kind::kGet:
      return "get";
    case Kind::kPut:
      return "put";
    case Kind::kScan:
      return "scan";
  }
  return "?";
}

struct GenOp {
  Kind kind = Kind::kGet;
  uint64_t key_id = 0;
  uint32_t scan_len = 0;
};

// The op mix of one workload. Reads are GETs (or SCANs when scan_reads);
// writes update an existing key, or insert a fresh one when insert_writes.
struct MixSpec {
  double read_fraction = 0.95;
  bool scan_reads = false;
  bool insert_writes = false;
  double zipf_theta = 0.99;  // <= 0: uniform keys
  uint32_t max_scan_len = 100;
};

class OpStream {
 public:
  OpStream(const MixSpec& mix, uint64_t preloaded_keys, uint64_t seed)
      : mix_(mix), rng_(seed), population_(preloaded_keys) {
    if (mix.zipf_theta > 0) zipf_.emplace(preloaded_keys, mix.zipf_theta);
  }

  GenOp Next() {
    GenOp op;
    const bool read = rng_.NextDouble() < mix_.read_fraction;
    if (read) {
      op.kind = mix_.scan_reads ? Kind::kScan : Kind::kGet;
      op.key_id = SampleKey();
      if (mix_.scan_reads) op.scan_len = 1 + static_cast<uint32_t>(rng_.Below(mix_.max_scan_len));
    } else {
      op.kind = Kind::kPut;
      op.key_id = mix_.insert_writes ? population_++ : SampleKey();
    }
    return op;
  }

  // Exponential inter-arrival gap in nanoseconds for a Poisson process at
  // `qps` arrivals per second.
  double NextGapNs(double qps) {
    return -std::log(1.0 - rng_.NextDouble()) * 1e9 / qps;
  }

  uint64_t population() const { return population_; }

 private:
  uint64_t SampleKey() { return zipf_ ? zipf_->Next(rng_) : rng_.Below(population_); }

  MixSpec mix_;
  Rng rng_;
  std::optional<ScrambledZipf> zipf_;  // unset: uniform over the population
  uint64_t population_;
};

}  // namespace perfbench
