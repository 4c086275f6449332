// Output verification: every value the benchmark writes is
// YcsbGenerator::MakeValue(key, version) for a fresh per-key version, and
// every value the system returns must equal one of the versions the
// benchmark wrote to that key (version 0 is the preload). Equality is
// checked on a 64-bit hash of the whole value, so verifying a 1 KB value
// costs a hash rather than regenerating it.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/ycsb.h"

namespace perfbench {

class ValueBook {
 public:
  explicit ValueBook(uint32_t value_size) : values_(Config(value_size)) {}

  // Register the preloaded version 0 of keys [0, n).
  void Preloaded(uint64_t n) {
    for (uint64_t k = 0; k < n; ++k) Write(k);
  }

  // Draw the next version of `key_id` and return its bytes.
  std::vector<uint8_t> Write(uint64_t key_id) {
    if (key_id >= next_version_.size()) next_version_.resize(key_id + 1, 0);
    const uint32_t v = next_version_[key_id]++;
    std::vector<uint8_t> value = values_.MakeValue(key_id, v);
    by_prefix_[Prefix(value)] = Entry{key_id, Hash(value)};
    return value;
  }

  // True iff `value` is exactly a version the benchmark wrote to `key_id`.
  bool Check(uint64_t key_id, const std::vector<uint8_t>& value) const {
    if (value.size() != values_.config().value_size) return false;
    auto it = by_prefix_.find(Prefix(value));
    return it != by_prefix_.end() && it->second.key_id == key_id &&
           it->second.hash == Hash(value);
  }

  // Parse a benchmark key name ("user" + 12 digits) back to its id.
  static bool ParseKey(const std::string& key, uint64_t* id) {
    if (key.size() != 16 || key.compare(0, 4, "user") != 0) return false;
    char* end = nullptr;
    *id = std::strtoull(key.c_str() + 4, &end, 10);
    return end == key.c_str() + key.size();
  }

  static std::string KeyName(uint64_t id) {
    return leed::workload::YcsbGenerator::KeyName(id);
  }

  // The bytes of `key_id`'s version `version`.
  std::vector<uint8_t> Value(uint64_t key_id, uint32_t version) const {
    return values_.MakeValue(key_id, version);
  }

 private:
  struct Entry {
    uint64_t key_id;
    uint64_t hash;
  };

  static leed::workload::YcsbConfig Config(uint32_t value_size) {
    leed::workload::YcsbConfig c;
    c.num_keys = 1;
    c.value_size = value_size;
    c.zipf_theta = 0;
    return c;
  }

  static uint64_t Hash(const std::vector<uint8_t>& value) {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ value.size();
    size_t i = 0;
    for (; i + 8 <= value.size(); i += 8) {
      uint64_t w;
      std::memcpy(&w, value.data() + i, 8);
      h = (h ^ w) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    for (; i < value.size(); ++i) h = (h ^ value[i]) * 0x100000001b3ULL;
    return h;
  }

  static uint64_t Prefix(const std::vector<uint8_t>& value) {
    uint64_t p = 0;
    std::memcpy(&p, value.data(), value.size() < 8 ? value.size() : 8);
    return p;
  }

  leed::workload::YcsbGenerator values_;
  std::vector<uint32_t> next_version_;
  std::unordered_map<uint64_t, Entry> by_prefix_;
};

}  // namespace perfbench
