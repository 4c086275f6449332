#include "store/superblock.h"

#include "common/bytes.h"
#include "common/crc32.h"

namespace leed::store {

namespace {

constexpr uint32_t kMagic = 0x1eed5b10;  // "LEED superblock"
constexpr uint16_t kVersion = 1;

template <typename T>
void Put(std::vector<uint8_t>& buf, size_t& pos, T v) {
  leed::CopyBytes(buf.data() + pos, &v, sizeof(T));
  pos += sizeof(T);
}

template <typename T>
bool Get(const std::vector<uint8_t>& buf, size_t& pos, T* v) {
  if (pos + sizeof(T) > buf.size()) return false;
  leed::CopyBytes(v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeSuperblock(const RecoveryCheckpoint& checkpoint,
                                      uint64_t sequence) {
  // Layout: magic(4) version(2) log_count(2) sequence(8)
  //         [ssd(1) pad(3) key_head(8) key_tail(8) value_head(8)
  //          value_tail(8)] * log_count
  //         crc(4 over everything before it), zero-padded to one slot.
  std::vector<uint8_t> out(kSuperblockSlotBytes, 0);
  size_t pos = 0;
  Put(out, pos, kMagic);
  Put(out, pos, kVersion);
  Put(out, pos, static_cast<uint16_t>(checkpoint.logs.size()));
  Put(out, pos, sequence);
  for (const auto& lp : checkpoint.logs) {
    Put(out, pos, lp.ssd);
    Put(out, pos, static_cast<uint8_t>(0));
    Put(out, pos, static_cast<uint16_t>(0));
    Put(out, pos, lp.key_head);
    Put(out, pos, lp.key_tail);
    Put(out, pos, lp.value_head);
    Put(out, pos, lp.value_tail);
  }
  uint32_t crc = Crc32(out.data(), pos);
  Put(out, pos, crc);
  return out;
}

Result<std::pair<RecoveryCheckpoint, uint64_t>> DecodeSuperblock(
    const std::vector<uint8_t>& data) {
  size_t pos = 0;
  uint32_t magic = 0;
  uint16_t version = 0, count = 0;
  uint64_t sequence = 0;
  if (!Get(data, pos, &magic) || magic != kMagic) {
    return Status::Corruption("superblock magic mismatch");
  }
  if (!Get(data, pos, &version) || version != kVersion) {
    return Status::Corruption("superblock version mismatch");
  }
  if (!Get(data, pos, &count) || !Get(data, pos, &sequence)) {
    return Status::Corruption("superblock truncated");
  }
  RecoveryCheckpoint cp;
  for (uint16_t i = 0; i < count; ++i) {
    RecoveryCheckpoint::LogPointers lp;
    uint8_t pad8 = 0;
    uint16_t pad16 = 0;
    if (!Get(data, pos, &lp.ssd) || !Get(data, pos, &pad8) ||
        !Get(data, pos, &pad16) || !Get(data, pos, &lp.key_head) ||
        !Get(data, pos, &lp.key_tail) || !Get(data, pos, &lp.value_head) ||
        !Get(data, pos, &lp.value_tail)) {
      return Status::Corruption("superblock log entry truncated");
    }
    cp.logs.push_back(lp);
  }
  uint32_t stored_crc = 0;
  size_t crc_pos = pos;
  if (!Get(data, pos, &stored_crc)) {
    return Status::Corruption("superblock crc missing");
  }
  if (Crc32(data.data(), crc_pos) != stored_crc) {
    return Status::Corruption("superblock crc mismatch");
  }
  return std::make_pair(std::move(cp), sequence);
}

void WriteSuperblock(sim::BlockDevice& device, uint64_t region_offset,
                     const RecoveryCheckpoint& checkpoint, uint64_t sequence,
                     std::function<void(Status)> done) {
  sim::IoRequest req;
  req.type = sim::IoType::kWrite;
  req.pattern = sim::IoPattern::kRandom;  // in-place slot rewrite
  req.offset = region_offset + (sequence % 2) * kSuperblockSlotBytes;
  req.data = EncodeSuperblock(checkpoint, sequence);
  Status st = device.Submit(std::move(req), [d = std::move(done)](sim::IoResult r) {
    d(std::move(r.status));
  });
  if (!st.ok()) done(st);
}

void ReadSuperblock(
    sim::BlockDevice& device, uint64_t region_offset,
    std::function<void(Status, RecoveryCheckpoint, uint64_t)> done) {
  sim::IoRequest req;
  req.type = sim::IoType::kRead;
  req.offset = region_offset;
  req.length = kSuperblockRegionBytes;
  Status st = device.Submit(std::move(req), [d = std::move(done)](sim::IoResult r) {
    if (!r.status.ok()) {
      d(std::move(r.status), {}, 0);
      return;
    }
    RecoveryCheckpoint best;
    uint64_t best_seq = 0;
    bool found = false;
    for (int slot = 0; slot < 2; ++slot) {
      std::vector<uint8_t> bytes(
          r.data.begin() + slot * kSuperblockSlotBytes,
          r.data.begin() + (slot + 1) * kSuperblockSlotBytes);
      auto decoded = DecodeSuperblock(bytes);
      if (!decoded.ok()) continue;
      auto [cp, seq] = std::move(decoded).value();
      if (!found || seq > best_seq) {
        best = std::move(cp);
        best_seq = seq;
        found = true;
      }
    }
    if (!found) {
      d(Status::Corruption("no valid superblock slot"), {}, 0);
      return;
    }
    d(Status::Ok(), std::move(best), best_seq);
  });
  if (!st.ok()) done(st, {}, 0);
}

}  // namespace leed::store
