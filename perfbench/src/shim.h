// The benchmark's view into the engine: a transparent EngineAdapter shim
// plus the in-memory span tracer it reports to.
//
// BenchShim forwards every call the server runtime makes to the real
// FlatStoreAdapter. Around the forwarded call it
//   * stamps each written value (its own copy, same length) and keeps the
//     oracle of acknowledged writes current from the Drain tags;
//   * checks every served read, and a sample of scans, against the
//     oracle — with no vt clock bound, so the checks charge zero vt;
//   * when a Tracer is attached, times the call in vt (the calling core's
//     clock) and host ns and records one span.
// Untraced runs attach no tracer, and the shim adds host work only.

#ifndef PERFBENCH_SHIM_H_
#define PERFBENCH_SHIM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/server.h"
#include "oracle.h"

namespace perfbench {

// Host steady-clock time in ns.
uint64_t HostNs();

// The engine entry points the shim times, plus the passes the runner
// drives between serving segments.
enum class Layer : uint8_t {
  kAdmit,    // SubmitPut / SubmitDelete / SubmitWriteBatch
  kRead,     // MultiGet / Get
  kScan,     // Scan
  kPump,     // Pump (g-persist: leader batch or follower wait)
  kDrain,    // Drain (index update, retire, completion)
  kSegment,  // one RunServer call
  kCleaner,  // RunCleanersOnce
  kTiering,  // RunTieringOnce
  kCount,
};
const char* LayerName(Layer layer);

// Work and time accumulated at one layer boundary.
struct LayerStats {
  uint64_t calls = 0;
  uint64_t items = 0;  // ops/keys/entries/scan rows handled
  uint64_t vt_ns = 0;
  uint64_t host_ns = 0;
};

// One traced call. vt is per segment (core clocks restart at zero for
// every RunServer call), so a span is placed by its parent.
struct Span {
  Layer layer;
  int32_t core;      // -1 for runner-level spans
  uint32_t parent;   // index+1 of the enclosing segment/pass span, 0: none
  uint64_t vt_start, vt_end;
  uint64_t host_start, host_end;
  // Write spans: the inclusive range of tags admitted or completed, so an
  // admission span links to the Drain span that completed it (same core,
  // overlapping range). 0/0 elsewhere.
  uint64_t tag_lo, tag_hi;
};

// Keeps spans and per-layer totals in memory; Write() dumps them once.
class Tracer {
 public:
  // Spans beyond `max_spans` are counted in the layer totals but not
  // kept (bounded memory on long runs).
  explicit Tracer(size_t max_spans);

  // Opens a runner-level span (segment or pass) that becomes the parent
  // of every span recorded until EndParent. Returns its handle.
  uint32_t BeginParent(Layer layer);
  void EndParent(uint32_t handle, uint64_t vt_ns);

  void Record(Layer layer, int core, uint64_t vt_start, uint64_t vt_end,
              uint64_t host_start, uint64_t host_end, uint64_t items,
              uint64_t tag_lo = 0, uint64_t tag_hi = 0);

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<size_t>(layer)];
  }

  // Writes every kept span as one tab-separated line under a `#`-prefixed
  // header carrying `meta`. Returns false if the file cannot be written.
  bool Write(const std::string& path, const std::string& meta) const;

 private:
  size_t max_spans_;
  std::vector<Span> spans_;
  uint32_t parent_ = 0;
  uint64_t dropped_ = 0;
  LayerStats stats_[static_cast<size_t>(Layer::kCount)];
};

// Mismatches the oracle found; every one is a failed operation.
struct Failures {
  uint64_t wrong_reads = 0;  // served Get/MultiGet results
  uint64_t wrong_scans = 0;  // sampled scans vs ScanFullIteration/oracle
  uint64_t lost_writes = 0;  // after recovery: missing or older version
  uint64_t corrupt_values = 0;  // after recovery: bytes never written
  uint64_t reordered_acks = 0;

  uint64_t total() const {
    return wrong_reads + wrong_scans + lost_writes + corrupt_values +
           reordered_acks;
  }
};

// Counters of the shim's own boundary that no engine stat exposes.
struct ShimCounters {
  uint64_t write_calls = 0;       // SubmitWriteBatch/SubmitPut/SubmitDelete
  uint64_t write_submissions = 0;  // ops offered to those calls
  uint64_t write_retries = 0;     // kBusy + kBackpressure statuses
  uint64_t write_admitted = 0;    // kPending + kDoneNow
  uint64_t read_calls = 0;
  uint64_t read_keys = 0;
  uint64_t read_deferred = 0;
  uint64_t pump_calls = 0;
  uint64_t empty_pumps = 0;
  uint64_t scans = 0;
  uint64_t scans_checked = 0;
  uint64_t acked_user_bytes = 0;  // 8 + value length per acked put
};

class BenchShim final : public flatstore::core::EngineAdapter {
 public:
  BenchShim(flatstore::core::FlatStore* store, Oracle* oracle);

  // nullptr: untraced (no timing, no spans).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  // Cross-checks one scan in `every` (0: none) against ScanFullIteration
  // and the oracle.
  void set_scan_check_every(uint64_t every) { scan_check_every_ = every; }

  const Failures& failures() const { return failures_; }
  const ShimCounters& counters() const { return counters_; }

  // Reads every key of the oracle back through `store` (no vt clock
  // bound) and counts lost and corrupted values. Used after recovery.
  void VerifyAll(flatstore::core::FlatStore* store);

  // --- EngineAdapter ---
  int num_cores() const override { return inner_->num_cores(); }
  int CoreForKey(uint64_t key) const override {
    return inner_->CoreForKey(key);
  }
  int SocketForCore(int core) const override {
    return inner_->SocketForCore(core);
  }
  const char* Name() const override { return inner_->Name(); }
  Submit SubmitPut(int core, uint64_t key, const void* value, uint32_t len,
                   uint64_t tag) override;
  Submit SubmitDelete(int core, uint64_t key, uint64_t tag) override;
  bool Get(int core, uint64_t key, std::string* value) override;
  bool Scan(int core, uint64_t start_key, uint64_t count,
            uint64_t* found) override;
  bool KeyBusy(int core, uint64_t key) const override {
    return inner_->KeyBusy(core, key);
  }
  size_t MultiGet(int core, const uint64_t* keys, size_t n,
                  flatstore::core::ReadResult* results) override;
  size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                          Submit* out) override;
  Submit SubmitTxn(int core, const flatstore::core::TxnOp* ops, size_t n,
                   uint64_t tag) override;
  size_t Pump(int core) override;
  size_t Drain(int core, std::vector<Done>* done) override;

 private:
  // A write admitted as kPending, waiting for its Drain tag.
  struct PendingWrite {
    uint64_t tag;
    uint64_t key;
    Version version;
  };

  // Start stamps of one timed call (zero when untraced).
  struct Probe {
    uint64_t vt = 0;
    uint64_t host = 0;
  };
  Probe Begin() const;
  void End(Layer layer, int core, const Probe& p, uint64_t items,
           uint64_t tag_lo = 0, uint64_t tag_hi = 0);

  // Records the outcome of one admitted write.
  void Admitted(int core, uint64_t tag, uint64_t key, const Version& v,
                Submit st);
  void Acknowledge(uint64_t key, const Version& v);
  void CheckRead(uint64_t key, bool found, const std::string& value);
  void CheckScan(uint64_t start_key, uint64_t count, uint64_t found);

  flatstore::core::FlatStore* store_;
  std::unique_ptr<flatstore::core::FlatStoreAdapter> inner_;
  Oracle* oracle_;
  Tracer* tracer_ = nullptr;
  uint64_t scan_check_every_ = 0;
  std::vector<std::deque<PendingWrite>> pending_;
  // Stamped copies of one write batch's values.
  std::vector<uint8_t> scratch_;
  Failures failures_;
  ShimCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SHIM_H_
