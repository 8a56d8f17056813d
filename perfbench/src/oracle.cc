#include "oracle.h"

#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace perfbench {
namespace {

// The 16-byte stamp: word 0 mixes the sequence number with the key (so
// even a 1-byte value changes between consecutive versions), word 1 is
// the key itself.
void StampWords(uint64_t key, uint32_t seq, uint64_t words[2]) {
  words[0] = static_cast<uint64_t>(seq) ^ flatstore::HashKey(key, 0x5EED);
  words[1] = key;
}

}  // namespace

Oracle::Oracle(uint64_t key_space)
    : next_seq_(key_space, 1), acked_(key_space) {}

Version Oracle::StampPut(uint64_t key, const void* src, uint32_t len,
                         uint8_t* dst) {
  FLATSTORE_CHECK_LT(key, acked_.size()) << "key outside the oracle";
  std::memcpy(dst, src, len);
  Version v;
  v.seq = next_seq_[key]++;
  v.len = len;
  uint64_t words[2];
  StampWords(key, v.seq, words);
  std::memcpy(dst, words, len < sizeof(words) ? len : sizeof(words));
  v.hash = flatstore::Hash64(dst, len);
  return v;
}

Version Oracle::StampDelete(uint64_t key) {
  FLATSTORE_CHECK_LT(key, acked_.size()) << "key outside the oracle";
  Version v;
  v.seq = next_seq_[key]++;
  v.tombstone = true;
  return v;
}

bool Oracle::Ack(uint64_t key, const Version& v) {
  if (v.seq <= acked_[key].seq) return false;
  acked_[key] = v;
  return true;
}

Verdict Oracle::Check(uint64_t key, bool found, const void* data,
                      size_t len) const {
  const Version& want = acked_[key];
  if (!want.present()) return found ? Verdict::kCorrupt : Verdict::kOk;
  if (!found) return Verdict::kLost;
  if (len == want.len && flatstore::Hash64(data, len) == want.hash) {
    return Verdict::kOk;
  }
  // An intact stamp of an older version of this key is a lost update.
  if (len >= 16) {
    uint64_t words[2];
    std::memcpy(words, data, sizeof(words));
    const uint64_t seq = words[0] ^ flatstore::HashKey(key, 0x5EED);
    if (words[1] == key && seq >= 1 && seq < want.seq) return Verdict::kLost;
  }
  return Verdict::kCorrupt;
}

uint64_t Oracle::LiveBytes() const {
  uint64_t total = 0;
  for (const Version& v : acked_) {
    if (v.present()) total += 8 + v.len;
  }
  return total;
}

}  // namespace perfbench
