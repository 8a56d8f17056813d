#include "shim.h"

#include <chrono>
#include <cstdio>

#include "net/message.h"
#include "vt/clock.h"

namespace perfbench {

using flatstore::core::EngineAdapter;
using flatstore::core::FlatStore;
using flatstore::core::FlatStoreAdapter;
using flatstore::core::GetResult;
using flatstore::core::ReadResult;

uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kAdmit: return "admit";
    case Layer::kRead: return "read";
    case Layer::kScan: return "scan";
    case Layer::kPump: return "pump";
    case Layer::kDrain: return "drain";
    case Layer::kSegment: return "segment";
    case Layer::kCleaner: return "cleaner_pass";
    case Layer::kTiering: return "tiering_pass";
    case Layer::kCount: break;
  }
  return "?";
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(size_t max_spans) : max_spans_(max_spans) {
  spans_.reserve(max_spans + 256);
}

uint32_t Tracer::BeginParent(Layer layer) {
  // Runner-level spans are few and always kept, so every child can name
  // its parent.
  spans_.push_back(Span{layer, -1, 0, 0, 0, HostNs(), 0, 0, 0});
  parent_ = static_cast<uint32_t>(spans_.size());
  return parent_;
}

void Tracer::EndParent(uint32_t handle, uint64_t vt_ns) {
  Span& s = spans_[handle - 1];
  s.vt_end = vt_ns;
  s.host_end = HostNs();
  LayerStats& st = stats_[static_cast<size_t>(s.layer)];
  st.calls++;
  st.vt_ns += vt_ns;
  st.host_ns += s.host_end - s.host_start;
  parent_ = 0;
}

void Tracer::Record(Layer layer, int core, uint64_t vt_start, uint64_t vt_end,
                    uint64_t host_start, uint64_t host_end, uint64_t items,
                    uint64_t tag_lo, uint64_t tag_hi) {
  LayerStats& st = stats_[static_cast<size_t>(layer)];
  st.calls++;
  st.items += items;
  st.vt_ns += vt_end - vt_start;
  st.host_ns += host_end - host_start;
  if (spans_.size() >= max_spans_) {
    dropped_++;
    return;
  }
  spans_.push_back(Span{layer, core, parent_, vt_start, vt_end, host_start,
                        host_end, tag_lo, tag_hi});
}

bool Tracer::Write(const std::string& path, const std::string& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n# spans_kept=%zu spans_dropped=%llu\n", meta.c_str(),
               spans_.size(), static_cast<unsigned long long>(dropped_));
  std::fprintf(f,
               "id\tname\tcore\tparent\tvt_start\tvt_end\thost_start\t"
               "host_end\ttag_lo\ttag_hi\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%d\t%u\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                 i + 1, LayerName(s.layer), s.core, s.parent,
                 static_cast<unsigned long long>(s.vt_start),
                 static_cast<unsigned long long>(s.vt_end),
                 static_cast<unsigned long long>(s.host_start),
                 static_cast<unsigned long long>(s.host_end),
                 static_cast<unsigned long long>(s.tag_lo),
                 static_cast<unsigned long long>(s.tag_hi));
  }
  return std::fclose(f) == 0;
}

// ---- BenchShim -------------------------------------------------------------

BenchShim::BenchShim(FlatStore* store, Oracle* oracle)
    : store_(store),
      inner_(std::make_unique<FlatStoreAdapter>(store)),
      oracle_(oracle),
      pending_(static_cast<size_t>(store->options().num_cores)),
      scratch_(flatstore::core::kMaxWriteBatch *
               flatstore::net::kMaxMsgValue) {}

BenchShim::Probe BenchShim::Begin() const {
  if (tracer_ == nullptr) return {};
  return {flatstore::vt::Now(), HostNs()};
}

void BenchShim::End(Layer layer, int core, const Probe& p, uint64_t items,
                    uint64_t tag_lo, uint64_t tag_hi) {
  if (tracer_ == nullptr) return;
  const uint64_t host = HostNs();
  tracer_->Record(layer, core, p.vt, flatstore::vt::Now(), p.host, host,
                  items, tag_lo, tag_hi);
}

void BenchShim::Admitted(int core, uint64_t tag, uint64_t key,
                         const Version& v, Submit st) {
  switch (st) {
    case Submit::kPending:
      pending_[core].push_back({tag, key, v});
      counters_.write_admitted++;
      break;
    case Submit::kDoneNow:
      Acknowledge(key, v);
      counters_.write_admitted++;
      break;
    case Submit::kBusy:
    case Submit::kBackpressure:
      counters_.write_retries++;
      break;
    default:  // kNotFound: a delete of an absent key changes nothing
      break;
  }
}

void BenchShim::Acknowledge(uint64_t key, const Version& v) {
  if (!oracle_->Ack(key, v)) failures_.reordered_acks++;
  if (!v.tombstone) counters_.acked_user_bytes += 8 + v.len;
}

EngineAdapter::Submit BenchShim::SubmitPut(int core, uint64_t key,
                                           const void* value, uint32_t len,
                                           uint64_t tag) {
  const Version v = oracle_->StampPut(key, value, len, scratch_.data());
  const Probe p = Begin();
  const Submit st = inner_->SubmitPut(core, key, scratch_.data(), len, tag);
  End(Layer::kAdmit, core, p, 1, tag, tag);
  counters_.write_calls++;
  counters_.write_submissions++;
  Admitted(core, tag, key, v, st);
  return st;
}

EngineAdapter::Submit BenchShim::SubmitDelete(int core, uint64_t key,
                                              uint64_t tag) {
  const Version v = oracle_->StampDelete(key);
  const Probe p = Begin();
  const Submit st = inner_->SubmitDelete(core, key, tag);
  End(Layer::kAdmit, core, p, 1, tag, tag);
  counters_.write_calls++;
  counters_.write_submissions++;
  Admitted(core, tag, key, v, st);
  return st;
}

size_t BenchShim::SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                                   Submit* out) {
  FLATSTORE_CHECK_LE(n, flatstore::core::kMaxWriteBatch);
  WriteReq stamped[flatstore::core::kMaxWriteBatch] = {};
  Version versions[flatstore::core::kMaxWriteBatch];
  for (size_t i = 0; i < n; i++) {
    stamped[i] = reqs[i];
    if (reqs[i].tombstone) {
      versions[i] = oracle_->StampDelete(reqs[i].key);
      continue;
    }
    uint8_t* dst = scratch_.data() + i * flatstore::net::kMaxMsgValue;
    versions[i] = oracle_->StampPut(reqs[i].key, reqs[i].value, reqs[i].len,
                                    dst);
    stamped[i].value = dst;
  }
  const Probe p = Begin();
  const size_t pending = inner_->SubmitWriteBatch(core, stamped, n, out);
  End(Layer::kAdmit, core, p, n, n > 0 ? reqs[0].tag : 0,
      n > 0 ? reqs[n - 1].tag : 0);
  counters_.write_calls++;
  counters_.write_submissions += n;
  for (size_t i = 0; i < n; i++) {
    Admitted(core, reqs[i].tag, reqs[i].key, versions[i], out[i]);
  }
  return pending;
}

EngineAdapter::Submit BenchShim::SubmitTxn(int, const flatstore::core::TxnOp*,
                                           size_t, uint64_t) {
  // The oracle tracks single-key versions only; no benchmark workload
  // issues transactions (ServerConfig::txn_every stays 0).
  FLATSTORE_CHECK(false) << "perfbench workloads issue no transactions";
  return Submit::kUnsupported;
}

void BenchShim::CheckRead(uint64_t key, bool found, const std::string& value) {
  if (oracle_->Check(key, found, value.data(), value.size()) !=
      Verdict::kOk) {
    failures_.wrong_reads++;
  }
}

bool BenchShim::Get(int core, uint64_t key, std::string* value) {
  const Probe p = Begin();
  const bool found = inner_->Get(core, key, value);
  End(Layer::kRead, core, p, 1);
  counters_.read_calls++;
  counters_.read_keys++;
  CheckRead(key, found, *value);
  return found;
}

size_t BenchShim::MultiGet(int core, const uint64_t* keys, size_t n,
                           ReadResult* results) {
  const Probe p = Begin();
  const size_t served = inner_->MultiGet(core, keys, n, results);
  End(Layer::kRead, core, p, served);
  counters_.read_calls++;
  counters_.read_keys += n;
  counters_.read_deferred += n - served;
  for (size_t i = 0; i < n; i++) {
    if (results[i].status == GetResult::kDeferred) continue;
    CheckRead(keys[i], results[i].status == GetResult::kFound,
              results[i].value);
  }
  return served;
}

void BenchShim::CheckScan(uint64_t start_key, uint64_t count,
                          uint64_t found) {
  // Zero vt: with no clock bound every engine charge is a no-op and the
  // PM device model is never consulted.
  flatstore::vt::ScopedClock unbound(nullptr);
  std::vector<std::pair<uint64_t, std::string>> merged, full;
  store_->Scan(start_key, count, &merged);
  store_->ScanFullIteration(start_key, count, &full);
  counters_.scans_checked++;
  bool ok = merged == full && merged.size() == found;
  for (const auto& [key, value] : merged) {
    if (!ok) break;
    ok = oracle_->Check(key, true, value.data(), value.size()) ==
         Verdict::kOk;
  }
  if (!ok) failures_.wrong_scans++;
}

bool BenchShim::Scan(int core, uint64_t start_key, uint64_t count,
                     uint64_t* found) {
  const Probe p = Begin();
  const bool ok = inner_->Scan(core, start_key, count, found);
  End(Layer::kScan, core, p, ok ? *found : 0);
  if (!ok) return false;
  counters_.scans++;
  if (scan_check_every_ > 0 && counters_.scans % scan_check_every_ == 0) {
    CheckScan(start_key, count, *found);
  }
  return true;
}

size_t BenchShim::Pump(int core) {
  const Probe p = Begin();
  const size_t n = inner_->Pump(core);
  End(Layer::kPump, core, p, n);
  counters_.pump_calls++;
  if (n == 0) counters_.empty_pumps++;
  return n;
}

size_t BenchShim::Drain(int core, std::vector<Done>* done) {
  const size_t first = done->size();
  const Probe p = Begin();
  const size_t n = inner_->Drain(core, done);
  End(Layer::kDrain, core, p, n, n > 0 ? (*done)[first].tag : 0,
      n > 0 ? done->back().tag : 0);
  std::deque<PendingWrite>& pend = pending_[core];
  for (size_t i = first; i < done->size(); i++) {
    FLATSTORE_CHECK(!pend.empty() && pend.front().tag == (*done)[i].tag)
        << "drain tag does not match the oldest admitted write";
    Acknowledge(pend.front().key, pend.front().version);
    pend.pop_front();
  }
  return n;
}

void BenchShim::VerifyAll(FlatStore* store) {
  flatstore::vt::ScopedClock unbound(nullptr);
  std::string value;
  for (uint64_t key = 0; key < oracle_->key_space(); key++) {
    value.clear();
    const bool found = store->Get(key, &value);
    switch (oracle_->Check(key, found, value.data(), value.size())) {
      case Verdict::kOk:
        break;
      case Verdict::kLost:
        failures_.lost_writes++;
        break;
      case Verdict::kCorrupt:
        failures_.corrupt_values++;
        break;
    }
  }
}

}  // namespace perfbench
