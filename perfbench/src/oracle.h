// Read and durability oracle of the benchmark.
//
// Every write the benchmark forwards to the engine carries a stamp: the
// key and a per-key sequence number, written into the benchmark's own
// copy of the client bytes at the same length (so the engine charges the
// same vt as for the unstamped value). The oracle remembers the last
// *acknowledged* version of every key — acknowledged means the engine
// returned the write's tag from Drain — and checks served reads and the
// post-crash image against it. A lost update or a corrupted value is
// therefore visible even though every client value has the same bytes and
// each key always has the same length.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// One version of a key as the engine should return it.
struct Version {
  uint32_t seq = 0;  // 0: never acknowledged (absent)
  uint32_t len = 0;
  uint64_t hash = 0;  // Hash64 of the stamped bytes
  bool tombstone = false;

  bool present() const { return seq != 0 && !tombstone; }
};

// Outcome of comparing one read against the oracle.
enum class Verdict {
  kOk,
  kLost,     // absent, or an older stamped version of the key
  kCorrupt,  // bytes that no acknowledged write of this key produced
};

class Oracle {
 public:
  // Keys are dense in [0, key_space).
  explicit Oracle(uint64_t key_space);

  uint64_t key_space() const { return acked_.size(); }

  // Copies `len` bytes of `src` into `dst` and stamps the first
  // min(len, 16) bytes with the key's next sequence number. Returns the
  // version the key will have once this write is acknowledged.
  Version StampPut(uint64_t key, const void* src, uint32_t len, uint8_t* dst);
  // Version of a delete of `key`.
  Version StampDelete(uint64_t key);

  // The engine acknowledged `v` for `key`. Returns false (and keeps the
  // newer version) if `v` is older than the version already acknowledged:
  // the engine completed two writes of one key out of order.
  bool Ack(uint64_t key, const Version& v);
  const Version& Acked(uint64_t key) const { return acked_[key]; }

  // Compares a read of `key` (`found` plus its bytes) against the last
  // acknowledged version.
  Verdict Check(uint64_t key, bool found, const void* data,
                size_t len) const;

  // Live user bytes: 8 key bytes plus the value length of every key whose
  // last acknowledged write is a put.
  uint64_t LiveBytes() const;

 private:
  std::vector<uint32_t> next_seq_;
  std::vector<Version> acked_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
