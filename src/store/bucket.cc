#include "common/bytes.h"
#include "common/crc32.h"

#include "store/format.h"

namespace leed::store {

namespace {

// Byte offset of the header's crc field within an encoded bucket; the CRC
// covers the full bucket_size buffer with these four bytes zeroed.
constexpr size_t kBucketCrcPos = BucketHeader::kEncodedSize - sizeof(uint32_t);

// Little-endian scalar write/read helpers over a byte buffer.
template <typename T>
void PutScalar(std::vector<uint8_t>& buf, size_t& pos, T v) {
  leed::CopyBytes(buf.data() + pos, &v, sizeof(T));
  pos += sizeof(T);
}

template <typename T>
bool GetScalar(const std::vector<uint8_t>& buf, size_t& pos, T* v) {
  if (pos + sizeof(T) > buf.size()) return false;
  leed::CopyBytes(v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

// value_offset is stored in 6 bytes (paper metadata budget); 48 bits cover
// 256 TB of logical log offsets.
void Put48(std::vector<uint8_t>& buf, size_t& pos, uint64_t v) {
  for (int i = 0; i < 6; ++i) buf[pos++] = static_cast<uint8_t>(v >> (8 * i));
}

bool Get48(const std::vector<uint8_t>& buf, size_t& pos, uint64_t* v) {
  if (pos + 6 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 6; ++i) *v |= static_cast<uint64_t>(buf[pos++]) << (8 * i);
  return true;
}

}  // namespace

uint32_t Bucket::PayloadBytes() const {
  uint32_t total = BucketHeader::kEncodedSize;
  for (const auto& it : items) total += it.EncodedSize();
  return total;
}

bool Bucket::Fits(uint32_t bucket_size, const KeyItem& extra) const {
  return PayloadBytes() + extra.EncodedSize() <= bucket_size;
}

std::optional<size_t> Bucket::Find(std::string_view key) const {
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].key == key) return i;
  }
  return std::nullopt;
}

bool Bucket::CanUpsert(uint32_t bucket_size, const KeyItem& item) const {
  if (auto idx = Find(item.key)) {
    uint32_t without = PayloadBytes() - items[*idx].EncodedSize();
    return without + item.EncodedSize() <= bucket_size;
  }
  return Fits(bucket_size, item);
}

bool Bucket::Upsert(uint32_t bucket_size, KeyItem item) {
  if (auto idx = Find(item.key)) {
    // Replacing in place: check the size delta fits.
    uint32_t without = PayloadBytes() - items[*idx].EncodedSize();
    if (without + item.EncodedSize() > bucket_size) return false;
    items[*idx] = std::move(item);
    return true;
  }
  if (!Fits(bucket_size, item)) return false;
  items.insert(items.begin(), std::move(item));  // newest first
  header.item_count = static_cast<uint16_t>(items.size());
  return true;
}

Result<std::vector<uint8_t>> EncodeBucket(const Bucket& bucket, uint32_t bucket_size) {
  if (bucket.PayloadBytes() > bucket_size) {
    return Status::InvalidArgument("bucket exceeds block size");
  }
  std::vector<uint8_t> out(bucket_size, 0);
  size_t pos = 0;
  const BucketHeader& h = bucket.header;
  PutScalar(out, pos, h.segment_id);
  PutScalar(out, pos, h.tag);
  PutScalar(out, pos, h.chain_len);
  PutScalar(out, pos, h.position);
  PutScalar(out, pos, h.contiguous);
  PutScalar(out, pos, h.value_ssd_hint);
  PutScalar(out, pos, h.prev_offset);
  PutScalar(out, pos, h.prev_ssd);
  PutScalar(out, pos, h.log_head);
  PutScalar(out, pos, h.log_tail);
  PutScalar(out, pos, static_cast<uint16_t>(bucket.items.size()));
  PutScalar(out, pos, h.owner_store);
  PutScalar(out, pos, static_cast<uint32_t>(0));  // crc, patched below

  for (const auto& it : bucket.items) {
    PutScalar(out, pos, static_cast<uint16_t>(it.key.size()));
    PutScalar(out, pos, it.value_len);
    Put48(out, pos, it.value_offset);
    PutScalar(out, pos, it.value_ssd);
    leed::CopyBytes(out.data() + pos, it.key.data(), it.key.size());
    pos += it.key.size();
  }
  // The crc slot is still zero, so checksumming the whole buffer here
  // matches what verifiers compute after zeroing the slot.
  uint32_t crc = leed::Crc32(out.data(), out.size());
  size_t crc_pos = kBucketCrcPos;
  PutScalar(out, crc_pos, crc);
  return out;
}

bool VerifyBucketCrc(const std::vector<uint8_t>& data, size_t at,
                     uint32_t bucket_size) {
  if (at + bucket_size > data.size()) return false;
  if (bucket_size < BucketHeader::kEncodedSize) return false;
  size_t pos = at + kBucketCrcPos;
  uint32_t stored = 0;
  if (!GetScalar(data, pos, &stored)) return false;
  // Checksum in place: prefix, the crc slot as four zero bytes, suffix.
  static constexpr uint8_t kZeroSlot[sizeof(uint32_t)] = {};
  constexpr size_t kSuffixPos = kBucketCrcPos + sizeof(kZeroSlot);
  const uint8_t* bucket = data.data() + at;
  uint32_t crc = leed::Crc32(bucket, kBucketCrcPos);
  crc = leed::Crc32Update(crc, kZeroSlot, sizeof(kZeroSlot));
  crc = leed::Crc32Update(crc, bucket + kSuffixPos, bucket_size - kSuffixPos);
  return crc == stored;
}

Result<Bucket> DecodeBucket(const std::vector<uint8_t>& data, size_t at,
                            uint32_t bucket_size) {
  if (at + bucket_size > data.size()) {
    return Status::Corruption("short bucket read");
  }
  if (!VerifyBucketCrc(data, at, bucket_size)) {
    return Status::Corruption("bucket crc mismatch");
  }
  // Work on a view positioned at `at` by copying offsets; GetScalar bounds-
  // checks against the full buffer which is fine since we checked above.
  std::vector<uint8_t> view(data.begin() + static_cast<long>(at),
                            data.begin() + static_cast<long>(at + bucket_size));
  size_t pos = 0;
  Bucket b;
  BucketHeader& h = b.header;
  uint16_t count = 0;
  if (!GetScalar(view, pos, &h.segment_id) || !GetScalar(view, pos, &h.tag) ||
      !GetScalar(view, pos, &h.chain_len) || !GetScalar(view, pos, &h.position) ||
      !GetScalar(view, pos, &h.contiguous) ||
      !GetScalar(view, pos, &h.value_ssd_hint) ||
      !GetScalar(view, pos, &h.prev_offset) || !GetScalar(view, pos, &h.prev_ssd) ||
      !GetScalar(view, pos, &h.log_head) || !GetScalar(view, pos, &h.log_tail) ||
      !GetScalar(view, pos, &count) || !GetScalar(view, pos, &h.owner_store) ||
      !GetScalar(view, pos, &h.crc)) {
    return Status::Corruption("truncated bucket header");
  }
  h.item_count = count;
  b.items.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t klen = 0;
    KeyItem it;
    if (!GetScalar(view, pos, &klen) || !GetScalar(view, pos, &it.value_len) ||
        !Get48(view, pos, &it.value_offset) || !GetScalar(view, pos, &it.value_ssd)) {
      return Status::Corruption("truncated key item");
    }
    if (pos + klen > view.size()) return Status::Corruption("truncated key bytes");
    it.key.assign(reinterpret_cast<const char*>(view.data() + pos), klen);
    pos += klen;
    b.items.push_back(std::move(it));
  }
  return b;
}

std::vector<uint8_t> EncodeValueEntry(const ValueEntry& entry) {
  std::vector<uint8_t> out(entry.EncodedSize());
  size_t pos = 0;
  PutScalar(out, pos, entry.segment_id);
  PutScalar(out, pos, static_cast<uint16_t>(entry.key.size()));
  PutScalar(out, pos, static_cast<uint32_t>(entry.value.size()));
  leed::CopyBytes(out.data() + pos, entry.key.data(), entry.key.size());
  pos += entry.key.size();
  // Empty values (DEL tombstones) have a null data(); CopyBytes guards
  // the n == 0 case that raw memcpy declares nonnull.
  leed::CopyBytes(out.data() + pos, entry.value.data(), entry.value.size());
  return out;
}

Result<ValueEntry> DecodeValueEntry(const std::vector<uint8_t>& data, size_t at) {
  size_t pos = at;
  ValueEntry e;
  uint16_t klen = 0;
  uint32_t vlen = 0;
  if (!GetScalar(data, pos, &e.segment_id) || !GetScalar(data, pos, &klen) ||
      !GetScalar(data, pos, &vlen)) {
    return Status::Corruption("truncated value entry header");
  }
  if (pos + klen + vlen > data.size()) {
    return Status::Corruption("truncated value entry body");
  }
  e.key.assign(reinterpret_cast<const char*>(data.data() + pos), klen);
  pos += klen;
  e.value.assign(data.begin() + static_cast<long>(pos),
                 data.begin() + static_cast<long>(pos + vlen));
  return e;
}

}  // namespace leed::store
