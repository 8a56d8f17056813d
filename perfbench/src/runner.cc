#include "runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "common/random.h"
#include "core/server.h"
#include "perfbench_costs.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "pm/pm_stats.h"
#include "vt/clock.h"

namespace perfbench {

namespace core = flatstore::core;
namespace pm = flatstore::pm;
namespace vt = flatstore::vt;
namespace wl = flatstore::workload;

// ---- workloads -------------------------------------------------------------

namespace {

// Every workload drives kConns client connections with kWindow requests
// in flight each (the repository's bench default); the open-loop run at
// the frozen rate issues kFixedOpsPerConn requests per connection, and
// the SLO search takes kSloSteps bisection steps over offered rates up to
// 1.25 x closed-loop throughput.
constexpr int kConns = 96;
constexpr int kWindow = 8;
constexpr uint64_t kFixedOpsPerConn = 600;
constexpr int kSloSteps = 7;

// Timed setups before the run (setup_s is the median of all setups),
// timed crash reopens after it (the first one is verified), the cap on
// setups the --seconds floor may add, and the spans a traced run keeps.
constexpr int kSetups = 3;
constexpr int kReopens = 5;
constexpr int kMaxSetups = 12;
constexpr size_t kMaxSpans = size_t{1} << 18;

// The frozen open-loop settings (fixed_rate_mops, p99_limit_us) were set
// once from the engine's measured capacity when the benchmark was written
// and must not follow later changes. The fixed rate is about 2/3 of the
// SLO rate, except on scan-tier: its p99 at 2/3 load moved by +-10 %
// between seeds, at 1/3 by under 3 %.

WorkloadSpec WriteGc() {
  // Write path under GC: 16 cores in one HB group, ETC values (5 % large,
  // out of log), 90:10 put:get, zipfian 0.99, a cleaner pass after every
  // segment.
  WorkloadSpec s{};
  s.name = "write-gc";
  s.store.num_cores = 16;
  s.store.group_size = 16;
  s.pool_mb = 768;
  s.mix.key_space = 1 << 16;
  s.mix.dist = wl::KeyDist::kZipfian;
  s.mix.get_ratio = 0.10;
  s.mix.etc_values = true;
  s.warmup_segments = 2;
  s.measured_segments = 10;
  s.closed_ops_per_conn = 500;
  s.probe_ops_per_conn = 300;
  s.fixed_rate_mops = 6.0;
  s.p99_limit_us = 40.0;
  s.cleaner_pass = true;
  return s;
}

WorkloadSpec ReadEtc() {
  // Read path: 5:95 put:get over a key space four times write-gc's, in a
  // pool roomy enough that no cleaning is needed (no cleaner pass runs).
  WorkloadSpec s{};
  s.name = "read-etc";
  s.store.num_cores = 16;
  s.store.group_size = 16;
  s.pool_mb = 768;
  s.mix.key_space = 1 << 18;
  s.mix.dist = wl::KeyDist::kZipfian;
  s.mix.get_ratio = 0.95;
  s.mix.etc_values = true;
  s.warmup_segments = 1;
  s.measured_segments = 3;
  s.closed_ops_per_conn = 2000;
  s.probe_ops_per_conn = 300;
  s.fixed_rate_mops = 16.0;
  s.p99_limit_us = 20.0;
  return s;
}

WorkloadSpec ScanTier() {
  // Ordered scans on the hash store (YCSB-E): 95 % scans of 1..100 keys
  // from zipfian starts, 5 % 64 B puts, 4 cores, tier on, preloaded and
  // fully tiered at setup, one tiering pass after every segment.
  WorkloadSpec s{};
  s.name = "scan-tier";
  s.store.num_cores = 4;
  s.store.group_size = 4;
  s.store.hash_initial_depth = 8;
  s.store.tier_enabled = true;
  s.pool_mb = 256;
  s.mix.key_space = 1 << 17;
  s.mix.dist = wl::KeyDist::kZipfian;
  s.mix.scan_ratio = 0.95;
  s.mix.scan_len_max = 100;
  s.mix.value_len = 64;
  s.warmup_segments = 1;
  s.measured_segments = 4;
  s.closed_ops_per_conn = 200;
  s.probe_ops_per_conn = 60;
  s.fixed_rate_mops = 0.06;
  s.p99_limit_us = 1000.0;
  s.tiering_pass = true;
  s.scan_check_every = 2000;
  return s;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = {WriteGc(), ReadEtc(),
                                                ScanTier()};
  for (const WorkloadSpec& s : all) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

double MetricValue(const Metrics& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  FLATSTORE_CHECK(false) << "no metric " << name;
  return 0;
}

std::string CostModelJson() {
  return std::string("{\"costs_h_sha256\": \"") + PERFBENCH_COSTS_SHA256 +
         "\", \"constants\": " + PERFBENCH_COSTS_JSON + "}";
}

double InterpolatedPercentile(const flatstore::Histogram& h, double p) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  auto edge_at = [&h, n](uint64_t rank) {
    return h.Percentile(100.0 * (static_cast<double>(rank) + 0.5) /
                        static_cast<double>(n));
  };
  const uint64_t r = std::min<uint64_t>(
      static_cast<uint64_t>(p / 100.0 * static_cast<double>(n)), n - 1);
  const uint64_t edge = edge_at(r);
  // First and last rank inside the bucket whose lower edge is `edge`.
  uint64_t lo = 0, hi = r;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (edge_at(mid) < edge) lo = mid + 1; else hi = mid;
  }
  const uint64_t first = lo;
  lo = r;
  hi = n - 1;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (edge_at(mid) > edge) hi = mid - 1; else lo = mid;
  }
  const uint64_t last = lo;
  // Bucket width: 1 below 16 ns, else 1/16 of the edge's power of two.
  const uint64_t width =
      edge < 16 ? 1 : uint64_t{1} << (63 - __builtin_clzll(edge) - 4);
  return static_cast<double>(edge) +
         static_cast<double>(width) *
             (static_cast<double>(r - first) + 0.5) /
             static_cast<double>(last - first + 1);
}

// ---- one run ---------------------------------------------------------------

namespace {

double Median(std::vector<double> v) {
  FLATSTORE_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Engine-wide counters read before and after the measured phase.
struct EngineCounters {
  pm::PmStats::Snapshot pm;
  uint64_t hb_batches = 0, hb_entries = 0, fused_entries = 0;
  uint64_t log_batches = 0, log_entries = 0;
  uint64_t chunks_cleaned = 0, chunks_tiered = 0;

  static EngineCounters Read(pm::PmPool* pool, core::FlatStore* store) {
    EngineCounters c;
    c.pm = pool->stats().Get();
    c.hb_batches = store->hb()->batches();
    c.hb_entries = store->hb()->batched_entries();
    c.fused_entries = store->hb()->fused_entries();
    for (int i = 0; i < store->options().num_cores; i++) {
      c.log_batches += store->LogForCore(i)->batches();
      c.log_entries += store->LogForCore(i)->entries_appended();
    }
    c.chunks_cleaned = store->ChunksCleaned();
    c.chunks_tiered = store->ChunksTiered();
    return c;
  }
};

// The engine under test and everything the benchmark keeps beside it.
struct Rig {
  std::unique_ptr<pm::PmDevice> device;
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<core::FlatStore> store;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<BenchShim> shim;
  // The setup's initial tiering (scan-tier): its passes convert the
  // preloaded log, the bulk of all conversions in a run.
  LayerStats setup_tiering;
};

std::unique_ptr<Rig> Setup(const WorkloadSpec& spec) {
  auto rig = std::make_unique<Rig>();
  rig->device = std::make_unique<pm::PmDevice>(1);
  pm::PmPool::Options po;
  po.size = spec.pool_mb << 20;
  po.device = rig->device.get();
  po.crash_tracking = true;
  rig->pool = std::make_unique<pm::PmPool>(po);
  rig->store = core::FlatStore::Create(rig->pool.get(), spec.store);
  rig->oracle = std::make_unique<Oracle>(spec.mix.key_space);
  rig->shim = std::make_unique<BenchShim>(rig->store.get(), rig->oracle.get());
  rig->shim->set_scan_check_every(spec.scan_check_every);
  core::Preload(rig->shim.get(), spec.mix, spec.mix.key_space);
  if (spec.store.tier_enabled) {
    rig->store->SealActiveLogChunks();
    LayerStats& st = rig->setup_tiering;
    while (true) {
      vt::Clock clock;
      vt::ScopedClock bind(&clock);
      const uint64_t h0 = HostNs();
      const size_t converted = rig->store->RunTieringOnce();
      st.calls++;
      st.items += converted;
      st.vt_ns += clock.now();
      st.host_ns += HostNs() - h0;
      if (converted == 0) break;
    }
    rig->device->Reset();
  }
  return rig;
}

// Serving-phase state of one run.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& options, Rig* rig,
         Tracer* tracer)
      : spec_(spec), options_(options), rig_(rig), tracer_(tracer) {}

  // One RunServer call followed by the workload's between-segment passes.
  core::ServerResult Serve(const core::ServerConfig& cfg, bool traced) {
    Tracer* t = traced ? tracer_ : nullptr;
    rig_->shim->set_tracer(t);
    const uint32_t seg = t ? t->BeginParent(Layer::kSegment) : 0;
    const uint64_t lines0 = rig_->pool->stats().Get().lines_flushed;
    const uint64_t bytes0 = rig_->shim->counters().acked_user_bytes;
    core::ServerResult r = core::RunServer(rig_->shim.get(), cfg);
    if (t) t->EndParent(seg, r.sim_ns);
    rig_->shim->set_tracer(nullptr);
    std::printf("[segment] %s %s: %llu ops, %.6g Mops, p50 %.6g us, p99 %.6g "
                "us, write amp %.4g, free chunks %llu\n",
                cfg.open_loop ? "open" : "closed", spec_.name,
                static_cast<unsigned long long>(r.ops), r.mops,
                InterpolatedPercentile(r.latency, 50) / 1e3,
                InterpolatedPercentile(r.latency, 99) / 1e3,
                Ratio(64.0 * static_cast<double>(
                                 rig_->pool->stats().Get().lines_flushed -
                                 lines0),
                      static_cast<double>(
                          rig_->shim->counters().acked_user_bytes - bytes0)),
                static_cast<unsigned long long>(
                    rig_->store->allocator()->free_chunks()));
    attempted_ += static_cast<uint64_t>(cfg.num_conns) * cfg.ops_per_conn;
    completed_ += r.ops;
    fingerprint_.push_back(r.ops);
    fingerprint_.push_back(r.sim_ns);
    fingerprint_.push_back(r.latency.Percentile(50));
    fingerprint_.push_back(r.latency.Percentile(99));
    for (uint64_t ns : r.core_ns) fingerprint_.push_back(ns);
    // Core clocks restart at zero every segment, so the device window is
    // cleared before the passes and again after them: pass traffic does
    // not queue ahead of the next segment's persists. (Letting it collide,
    // as bench_fig13_gc does, stalled one segment in ten by several ms,
    // hit or missed by chance, and moved write-gc throughput by up to 30 %
    // between seeds.) Pass cost is reported per layer instead.
    rig_->device->Reset();
    if (spec_.cleaner_pass) Pass(Layer::kCleaner, t);
    if (spec_.tiering_pass) Pass(Layer::kTiering, t);
    rig_->device->Reset();
    free_chunks_min_ =
        std::min(free_chunks_min_, rig_->store->allocator()->free_chunks());
    return r;
  }

  core::ServerConfig Config(uint64_t salt, uint64_t ops_per_conn,
                            bool open_loop, double offered_mops) const {
    core::ServerConfig cfg;
    cfg.num_conns = kConns;
    cfg.client_window = kWindow;
    cfg.workload = spec_.mix;
    cfg.seed = options_.seed * 1000003 + salt;
    cfg.open_loop = open_loop;
    cfg.offered_mops = offered_mops;
    cfg.ops_per_conn = ops_per_conn;
    return cfg;
  }

  // An open-loop probe meets the SLO when its p99 stays within the limit.
  // The limit is also the backlog test: a backlog growing at a share d of
  // the offered rate delays the last 1 % of a probe of length T by about
  // d*T, so any d above limit/T (under 2 % for every workload here) misses
  // it. The throughput check only rejects a probe that completed less
  // than half the offered rate; a fixed-count probe ends with the slowest
  // of its Poisson streams, so even an unsaturated one completes up to
  // ~20 % below its offered rate.
  bool MeetsSlo(const core::ServerResult& r, double offered) const {
    return InterpolatedPercentile(r.latency, 99) <= spec_.p99_limit_us * 1e3 &&
           r.mops >= 0.5 * offered;
  }

  RunResult Run();

 private:
  void Pass(Layer layer, Tracer* t) {
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    const uint32_t span = t ? t->BeginParent(layer) : 0;
    if (layer == Layer::kCleaner) {
      rig_->store->RunCleanersOnce();
    } else {
      rig_->store->RunTieringOnce();
    }
    if (t) t->EndParent(span, clock.now());
  }

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  Rig* rig_;
  Tracer* tracer_;
  uint64_t attempted_ = 0;
  uint64_t completed_ = 0;
  uint64_t free_chunks_min_ = UINT64_MAX;
  std::vector<uint64_t> fingerprint_;
};

RunResult Runner::Run() {
  RunResult out;
  core::FlatStore* store = rig_->store.get();
  uint64_t salt = 0;

  // -- closed loop --
  for (int i = 0; i < spec_.warmup_segments; i++) {
    Serve(Config(salt++, spec_.closed_ops_per_conn, false, 0), false);
  }
  const ShimCounters before_shim = rig_->shim->counters();
  const EngineCounters before = EngineCounters::Read(rig_->pool.get(), store);
  free_chunks_min_ = rig_->store->allocator()->free_chunks();
  uint64_t ops = 0, sim_ns = 0;
  std::vector<uint64_t> per_core(static_cast<size_t>(spec_.store.num_cores));
  const uint64_t serve_host0 = HostNs();
  for (int i = 0; i < spec_.measured_segments; i++) {
    core::ServerResult r = Serve(
        Config(salt++, spec_.closed_ops_per_conn, false, 0),
        tracer_ != nullptr);
    ops += r.ops;
    sim_ns += r.sim_ns;
    for (size_t c = 0; c < per_core.size(); c++) per_core[c] += r.core_ns[c];
  }
  out.serving_host_s = static_cast<double>(HostNs() - serve_host0) / 1e9;
  const EngineCounters after = EngineCounters::Read(rig_->pool.get(), store);
  ShimCounters sc = rig_->shim->counters();
  const double throughput = Ratio(static_cast<double>(ops) * 1e3,
                                  static_cast<double>(sim_ns));
  const pm::PmStats::Snapshot pmd = pm::Delta(before.pm, after.pm);
  const uint64_t acked_bytes =
      sc.acked_user_bytes - before_shim.acked_user_bytes;
  const double write_amp =
      Ratio(static_cast<double>(pmd.lines_flushed) * 64.0,
            static_cast<double>(acked_bytes));

  // -- open loop at the frozen rate --
  core::ServerResult fixed =
      Serve(Config(salt++, kFixedOpsPerConn, true, spec_.fixed_rate_mops),
            false);
  const double p50 = InterpolatedPercentile(fixed.latency, 50) / 1e3;
  const double p99 = InterpolatedPercentile(fixed.latency, 99) / 1e3;

  // -- SLO search: highest offered rate meeting the limit --
  // Whether one probe near the knee meets the limit is a coin flip over a
  // few percent of offered rate, and a single unlucky miss early in the
  // bisection drags the result far down. Each step therefore decides by
  // the majority of up to three probes with different arrival seeds.
  // The run at the frozen rate is the first probe: if it met the limit,
  // the search starts above it.
  double lo = MeetsSlo(fixed, spec_.fixed_rate_mops) ? spec_.fixed_rate_mops
                                                      : 0;
  double hi = 1.25 * throughput;
  for (int i = 0; i < kSloSteps; i++) {
    const double mid = (lo + hi) / 2;
    int meets = 0, misses = 0;
    while (meets < 2 && misses < 2) {
      const core::ServerResult r =
          Serve(Config(salt++, spec_.probe_ops_per_conn, true, mid), false);
      const bool pass = MeetsSlo(r, mid);
      (pass ? meets : misses)++;
      std::printf("[slo] offered %.6g Mops: achieved %.6g Mops, p99 %.6g us "
                  "-> %s\n",
                  mid, r.mops, InterpolatedPercentile(r.latency, 99) / 1e3,
                  pass ? "meets" : "misses");
    }
    if (meets == 2) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double slo = lo;

  // -- space at end of serving --
  flatstore::alloc::LazyAllocator* alloc = store->allocator();
  const double live = static_cast<double>(rig_->oracle->LiveBytes());
  const double held = static_cast<double>(alloc->total_chunks() -
                                          alloc->free_chunks()) *
                      static_cast<double>(flatstore::alloc::kChunkSize);
  const double space_amp = Ratio(held, live);
  const double alloc_per_live =
      Ratio(static_cast<double>(alloc->allocated_bytes()), live);

  // -- index probes over a fixed key sample --
  double probe_vt = 0, probe_host = 0;
  {
    constexpr int kProbes = 20000;
    flatstore::Rng rng(options_.seed * 31 + 7);
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    const uint64_t h0 = HostNs();
    uint64_t packed = 0;
    for (int i = 0; i < kProbes; i++) {
      const uint64_t key = rng.Uniform(spec_.mix.key_space);
      store->IndexForCore(store->CoreForKey(key))->Get(key, &packed);
    }
    probe_host = static_cast<double>(HostNs() - h0) / kProbes;
    probe_vt = static_cast<double>(clock.now()) / kProbes;
  }

  // -- crash, recover, verify every acknowledged key, reopen timings --
  std::vector<double> reopen_ms, replay_ms, usage_ms, tier_ms;
  core::FlatStore::RecoveryStats first_stats;
  for (int i = 0; i < kReopens; i++) {
    rig_->store.reset();
    rig_->pool->SimulateCrash();
    const uint64_t t0 = HostNs();
    rig_->store = core::FlatStore::Open(rig_->pool.get(), spec_.store);
    reopen_ms.push_back(static_cast<double>(HostNs() - t0) / 1e6);
    const core::FlatStore::RecoveryStats& rs = rig_->store->recovery_stats();
    replay_ms.push_back(static_cast<double>(rs.replay_ns) / 1e6);
    usage_ms.push_back(static_cast<double>(rs.usage_ns) / 1e6);
    tier_ms.push_back(static_cast<double>(rs.tier_load_ns) / 1e6);
    if (i == 0) {
      first_stats = rs;
      rig_->shim->VerifyAll(rig_->store.get());
    }
  }
  std::printf("[recover] %zu reopens, median %.6g ms\n", reopen_ms.size(),
              Median(reopen_ms));

  // -- result --
  out.failures = rig_->shim->failures();
  out.attempted = attempted_;
  out.failed = (attempted_ - completed_) + out.failures.total();
  out.vt_fingerprint = fingerprint_;
  out.end_to_end = {
      {"throughput_mops", "Mops", throughput},
      {"slo_mops", "Mops", slo},
      {"p50_us", "us", p50},
      {"p99_us", "us", p99},
      {"write_amp", "ratio", write_amp},
      {"space_amp", "ratio", space_amp},
  };
  if (tracer_ == nullptr) return out;

  // -- per-layer metrics of the measured closed-loop segments --
  const auto& T = *tracer_;
  auto L = [&T](Layer l) -> const LayerStats& { return T.stats(l); };
  const double dops = static_cast<double>(ops);
  const double writes = static_cast<double>(sc.write_admitted -
                                            before_shim.write_admitted);
  const double submissions = static_cast<double>(
      sc.write_submissions - before_shim.write_submissions);
  const double write_calls =
      static_cast<double>(sc.write_calls - before_shim.write_calls);
  const double read_keys =
      static_cast<double>(sc.read_keys - before_shim.read_keys);
  const double read_calls =
      static_cast<double>(sc.read_calls - before_shim.read_calls);
  const double pump_calls =
      static_cast<double>(sc.pump_calls - before_shim.pump_calls);
  uint64_t core_sum = 0, core_max = 0;
  for (uint64_t ns : per_core) {
    core_sum += ns;
    core_max = std::max(core_max, ns);
  }
  const double engine_vt = static_cast<double>(
      L(Layer::kAdmit).vt_ns + L(Layer::kRead).vt_ns + L(Layer::kScan).vt_ns +
      L(Layer::kPump).vt_ns + L(Layer::kDrain).vt_ns);
  const double cleaner_passes = static_cast<double>(L(Layer::kCleaner).calls);
  // Tier conversions of the setup's initial tiering and of the passes in
  // the measured segments (puts alone rarely seal a chunk to convert).
  const LayerStats& setup_tier = rig_->setup_tiering;
  const double tiered =
      static_cast<double>(setup_tier.items + after.chunks_tiered -
                          before.chunks_tiered);
  const double tier_vt = static_cast<double>(setup_tier.vt_ns +
                                             L(Layer::kTiering).vt_ns);
  const double tier_host = static_cast<double>(setup_tier.host_ns +
                                               L(Layer::kTiering).host_ns);
  out.per_layer = {
      {"net.self_ns_per_op", "ns",
       Ratio(static_cast<double>(core_sum) - engine_vt, dops)},
      {"net.core_skew", "ratio",
       Ratio(static_cast<double>(core_max),
             static_cast<double>(core_sum) / per_core.size())},
      {"core.admit_ns_per_write", "ns",
       Ratio(static_cast<double>(L(Layer::kAdmit).vt_ns), writes)},
      {"core.host_admit_ns_per_write", "ns",
       Ratio(static_cast<double>(L(Layer::kAdmit).host_ns), writes)},
      {"core.write_batch_avg", "ratio", Ratio(submissions, write_calls)},
      {"core.write_retry_ratio", "ratio",
       Ratio(static_cast<double>(sc.write_retries - before_shim.write_retries),
             submissions)},
      {"core.read_ns_per_get", "ns",
       Ratio(static_cast<double>(L(Layer::kRead).vt_ns),
             static_cast<double>(L(Layer::kRead).items))},
      {"core.host_read_ns_per_get", "ns",
       Ratio(static_cast<double>(L(Layer::kRead).host_ns),
             static_cast<double>(L(Layer::kRead).items))},
      {"core.read_batch_avg", "ratio", Ratio(read_keys, read_calls)},
      {"core.read_deferred_ratio", "ratio",
       Ratio(static_cast<double>(sc.read_deferred -
                                 before_shim.read_deferred),
             read_keys)},
      {"core.drain_ns_per_op", "ns",
       Ratio(static_cast<double>(L(Layer::kDrain).vt_ns),
             static_cast<double>(L(Layer::kDrain).items))},
      {"core.host_drain_ns_per_op", "ns",
       Ratio(static_cast<double>(L(Layer::kDrain).host_ns),
             static_cast<double>(L(Layer::kDrain).items))},
      {"core.scan_ns_per_op", "ns",
       Ratio(static_cast<double>(L(Layer::kScan).vt_ns),
             static_cast<double>(L(Layer::kScan).calls))},
      {"core.scan_ns_per_item", "ns",
       Ratio(static_cast<double>(L(Layer::kScan).vt_ns),
             static_cast<double>(L(Layer::kScan).items))},
      {"core.host_scan_ns_per_item", "ns",
       Ratio(static_cast<double>(L(Layer::kScan).host_ns),
             static_cast<double>(L(Layer::kScan).items))},
      {"core.host_recover_ms", "ms", Median(reopen_ms)},
      {"batch.pump_ns_per_entry", "ns",
       Ratio(static_cast<double>(L(Layer::kPump).vt_ns),
             static_cast<double>(L(Layer::kPump).items))},
      {"batch.avg_batch", "ratio",
       Ratio(static_cast<double>(after.hb_entries - before.hb_entries),
             static_cast<double>(after.hb_batches - before.hb_batches))},
      {"batch.fused_share", "ratio",
       Ratio(static_cast<double>(after.fused_entries - before.fused_entries),
             static_cast<double>(after.hb_entries - before.hb_entries))},
      {"batch.empty_pump_ratio", "ratio",
       Ratio(static_cast<double>(sc.empty_pumps - before_shim.empty_pumps),
             pump_calls)},
      {"log.entries_per_append", "ratio",
       Ratio(static_cast<double>(after.log_entries - before.log_entries),
             static_cast<double>(after.log_batches - before.log_batches))},
      {"log.cleaner_ns_per_pass", "ns",
       Ratio(static_cast<double>(L(Layer::kCleaner).vt_ns), cleaner_passes)},
      {"log.host_cleaner_ns_per_pass", "ns",
       Ratio(static_cast<double>(L(Layer::kCleaner).host_ns),
             cleaner_passes)},
      {"log.gc_write_amp", "ratio", pm::GcWriteAmp(pmd)},
      {"log.chunks_cleaned", "count",
       static_cast<double>(after.chunks_cleaned - before.chunks_cleaned)},
      {"log.replay_ms", "ms", Median(replay_ms)},
      {"log.chunks_replayed", "count",
       static_cast<double>(first_stats.chunks_replayed)},
      {"log.chunks_skipped_tiered", "count",
       static_cast<double>(first_stats.chunks_skipped_tiered)},
      {"pm.lines_per_op", "1/op",
       Ratio(static_cast<double>(pmd.lines_flushed), dops)},
      {"pm.fences_per_op", "1/op",
       Ratio(static_cast<double>(pmd.fences), dops)},
      {"pm.persist_calls_per_op", "1/op",
       Ratio(static_cast<double>(pmd.persist_calls), dops)},
      {"pm.bytes_per_op", "B/op",
       Ratio(static_cast<double>(pmd.bytes_persisted), dops)},
      {"alloc.free_chunks_min", "count", static_cast<double>(free_chunks_min_)},
      {"alloc.allocated_bytes_per_live_byte", "ratio", alloc_per_live},
      {"alloc.usage_rebuild_ms", "ms", Median(usage_ms)},
      {"epoch.advances_per_kop", "1/kop",
       Ratio(static_cast<double>(after.pm.epoch_advances -
                                 before.pm.epoch_advances) *
                 1e3,
             dops)},
      {"epoch.deferred_hwm", "count",
       static_cast<double>(after.pm.epoch_deferred_hwm)},
      {"index.probe_ns", "ns", probe_vt},
      {"index.host_probe_ns", "ns", probe_host},
      {"tier.convert_ns_per_chunk", "ns",
       Ratio(tier_vt, tiered)},
      {"tier.host_convert_ns_per_chunk", "ns",
       Ratio(tier_host, tiered)},
      {"tier.chunks_tiered", "count", tiered},
      {"tier.load_ms", "ms", Median(tier_ms)},
      {"tier.nodes_loaded", "count",
       static_cast<double>(first_stats.tier_nodes_loaded)},
  };
  return out;
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  const uint64_t start = HostNs();
  std::vector<double> setup_s;
  auto timed_setup = [&spec, &setup_s]() {
    const uint64_t t0 = HostNs();
    std::unique_ptr<Rig> rig = Setup(spec);
    setup_s.push_back(static_cast<double>(HostNs() - t0) / 1e9);
    return rig;
  };
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; i++) {
    rig.reset();  // one pool in memory at a time
    rig = timed_setup();
  }
  std::unique_ptr<Tracer> tracer;
  if (options.traced) tracer = std::make_unique<Tracer>(kMaxSpans);
  RunResult r = Runner(spec, options, rig.get(), tracer.get()).Run();
  rig.reset();
  // --seconds is a floor on the run: time the fixed workload left over
  // goes into more timed setups.
  while (static_cast<int>(setup_s.size()) < kMaxSetups &&
         static_cast<double>(HostNs() - start) / 1e9 < options.seconds) {
    timed_setup().reset();
  }
  std::printf("[setup] %zu setups, median %.6g s\n", setup_s.size(),
              Median(setup_s));
  r.end_to_end.push_back({"setup_s", "s", Median(setup_s)});
  if (tracer && !options.trace_path.empty()) {
    const std::string meta = std::string("{\"workload\": \"") + spec.name +
                             "\", \"seed\": " + std::to_string(options.seed) +
                             ", \"vt_cost_model\": " + CostModelJson() + "}";
    if (!tracer->Write(options.trace_path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_path.c_str());
    }
  }
  return r;
}

}  // namespace perfbench
