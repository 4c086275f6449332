// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320).
//
// Hoisted out of store/superblock.cc so every on-disk record format —
// superblock slots, per-bucket headers (store/format.h) — shares one
// checksum implementation. Slice-by-8: eight compile-time tables fold eight
// input bytes per step, and the tail runs through the classic byte table,
// so every result equals the bytewise CRC of the same polynomial and on-disk
// formats are unchanged. The check value Crc32("123456789") == 0xCBF43926
// and agreement with a bytewise reference at every length and alignment are
// pinned by tests/common_test.cc.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace leed {

namespace crc32_internal {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0][b] is the CRC register step for byte b; tables[k][b] is that
// step followed by k zero bytes, which is what lets one step consume eight.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace crc32_internal

// Extends `crc`, the finished CRC-32 of some prefix (0 for the empty one),
// by `length` more bytes: Crc32Update(Crc32(a), b) == Crc32(a + b). Lets a
// caller checksum a buffer in pieces without assembling it.
inline uint32_t Crc32Update(uint32_t crc, const uint8_t* data, size_t length) {
  const auto& t = crc32_internal::kTables;
  crc = ~crc;
  for (; length >= 8; data += 8, length -= 8) {
    const uint32_t lo = crc32_internal::LoadLe32(data) ^ crc;
    const uint32_t hi = crc32_internal::LoadLe32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; length > 0; ++data, --length)
    crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
  return ~crc;
}

inline uint32_t Crc32(const uint8_t* data, size_t length) {
  return Crc32Update(0, data, length);
}

}  // namespace leed
