#include "store/range_index.h"

#include <cstdio>

namespace leed::store {

bool RangeIndex::Upsert(std::string_view key, ValueLoc loc) {
  auto it = map_.lower_bound(key);
  if (it != map_.end() && it->first == key) {
    it->second = loc;  // overwrite
    return false;
  }
  map_.emplace_hint(it, std::string(key), loc);
  return true;
}

bool RangeIndex::Erase(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  map_.erase(it);
  return true;
}

std::optional<RangeIndex::ValueLoc> RangeIndex::Find(std::string_view key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool RangeIndex::Repair(std::string_view key, const ValueLoc& from,
                        const ValueLoc& to) {
  auto it = map_.find(key);
  // A location other than `from` means a newer PUT owns the entry.
  if (it == map_.end() || !(it->second == from)) return false;
  it->second = to;
  return true;
}

void RangeIndex::VisitFrom(
    std::string_view start,
    const std::function<bool(const std::string&, const ValueLoc&)>& fn) const {
  for (auto it = map_.lower_bound(start); it != map_.end(); ++it) {
    if (!fn(it->first, it->second)) return;
  }
}

void RangeIndex::Visit(
    const std::function<void(const std::string&, const ValueLoc&)>& fn) const {
  for (const auto& [key, loc] : map_) fn(key, loc);
}

std::string RangeIndex::DebugDump() const {
  std::string out;
  out.reserve(map_.size() * 32);
  for (const auto& [key, l] : map_) {
    for (char c : key) {
      if (c <= ' ' || c == '%' || c == 0x7f) {
        char esc[4];
        std::snprintf(esc, sizeof esc, "%%%02x", static_cast<unsigned char>(c));
        out += esc;
      } else {
        out += c;
      }
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, " %u %llu %u\n", static_cast<unsigned>(l.ssd),
                  static_cast<unsigned long long>(l.offset), l.value_len);
    out += buf;
  }
  return out;
}

}  // namespace leed::store
