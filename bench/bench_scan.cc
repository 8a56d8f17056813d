// Range scans on the hash store (DESIGN.md §11). Two parts:
//
//  * Microbench: tier-backed merged scans (FlatStore::Scan — pipelined
//    tier gather + delta-set merge + batched read wave) vs the only range
//    query a pure hash index has, ScanFullIteration (enumerate every
//    index entry, sort, read). Swept over range lengths. Each row has
//    host wall-clock columns (merged_us, full_iter_us, speedup; CI's
//    bench-smoke asserts speedup >= 2 at range length >= 100) and the
//    same scans' simulated cost (merged_vt_us, full_iter_vt_us,
//    vt_speedup), measured in a second pass bound to a vt clock.
//
//  * YCSB-E shaped simulation points (virtual time): 95 % short scans
//    from zipfian start keys + 5 % inserts through the full
//    client/server co-simulation, quoting Mops/s like the fig09 bench —
//    FlatStore-H+tier next to FlatStore-M (ordered Masstree index, no
//    tier) on the same workload.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/flatstore.h"
#include "vt/clock.h"

namespace flatstore {
namespace bench {
namespace {

Table g_table("Range scans: tier-backed merge vs hash full iteration");

constexpr uint64_t kScanKeys = 1 << 17;

// FlatStore-H with the tier, or FlatStore-M (Masstree, no tier).
core::FlatStoreOptions ScanOptions(bool masstree) {
  core::FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 8;
  fo.tier_enabled = !masstree;
  if (masstree) fo.index = core::IndexKind::kMasstree;
  return fo;
}

// Store preloaded with kScanKeys keys. FlatStore-H ends fully tiered (a
// bounded suffix stays in the delta sets so the merge path is exercised
// too); FlatStore-M gets the same puts.
Rig MakeScanRig(bool masstree = false) {
  Rig rig = MakeFlatRig(ScanOptions(masstree), /*pool_mb=*/1024);
  std::string value(64, 's');
  const uint64_t keys = BenchKeys(kScanKeys);
  for (uint64_t k = 0; k < keys; k++) rig.flat->Put(k, value);
  rig.flat->SealActiveLogChunks();
  for (uint64_t k = 0; k < 1024 && k < keys; k++) rig.flat->Put(k, value);
  while (!masstree && rig.flat->RunTieringOnce() > 0) {
  }
  return rig;
}

BenchJson* g_json = nullptr;

void BM_ScanSweep(benchmark::State& state) {
  const auto range_len = static_cast<uint64_t>(state.range(0));
  const uint64_t keys = BenchKeys(kScanKeys);
  Rig rig = MakeScanRig();
  // Deterministic start keys spread over the space.
  const int iters = 32;
  std::vector<std::pair<uint64_t, std::string>> rows;
  double merged_us = 0, full_us = 0;
  uint64_t merged_found = 0, full_found = 0;
  for (auto _ : state) {
    for (int i = 0; i < iters; i++) {
      const uint64_t start = (static_cast<uint64_t>(i) * 2654435761u) % keys;
      rows.clear();
      auto t0 = std::chrono::steady_clock::now();
      merged_found += rig.flat->Scan(start, range_len, &rows);
      auto t1 = std::chrono::steady_clock::now();
      merged_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
      rows.clear();
      t0 = std::chrono::steady_clock::now();
      full_found += rig.flat->ScanFullIteration(start, range_len, &rows);
      t1 = std::chrono::steady_clock::now();
      full_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
    }
  }
  merged_us /= iters;
  full_us /= iters;
  const double speedup = merged_us > 0 ? full_us / merged_us : 0;
  // Second pass, bound to a vt clock: the simulated cost of the same
  // scans (kept out of the host timing above, which runs unbound).
  double merged_vt_us = 0, full_vt_us = 0;
  {
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    for (int i = 0; i < iters; i++) {
      const uint64_t start = (static_cast<uint64_t>(i) * 2654435761u) % keys;
      rows.clear();
      uint64_t t0 = clock.now();
      rig.flat->Scan(start, range_len, &rows);
      merged_vt_us += static_cast<double>(clock.now() - t0) / 1e3;
      rows.clear();
      t0 = clock.now();
      rig.flat->ScanFullIteration(start, range_len, &rows);
      full_vt_us += static_cast<double>(clock.now() - t0) / 1e3;
    }
  }
  merged_vt_us /= iters;
  full_vt_us /= iters;
  const double vt_speedup = merged_vt_us > 0 ? full_vt_us / merged_vt_us : 0;
  state.counters["merged_us"] = merged_us;
  state.counters["full_iter_us"] = full_us;
  state.counters["speedup"] = speedup;
  state.counters["merged_vt_us"] = merged_vt_us;
  state.counters["full_iter_vt_us"] = full_vt_us;
  if (merged_found != full_found) {
    std::fprintf(stderr, "scan mismatch: %llu vs %llu items\n",
                 static_cast<unsigned long long>(merged_found),
                 static_cast<unsigned long long>(full_found));
    std::abort();
  }
  g_json->AddRow()
      .Str("mode", "micro")
      .Int("range_len", range_len)
      .Int("keys", keys)
      .Num("merged_us", merged_us)
      .Num("full_iter_us", full_us)
      .Num("speedup", speedup)
      .Num("merged_vt_us", merged_vt_us)
      .Num("full_iter_vt_us", full_vt_us)
      .Num("vt_speedup", vt_speedup);
  std::printf(
      "range %5llu: host merged %9.1f us  full-iter %9.1f us  %6.1fx | "
      "vt merged %8.2f us  full-iter %9.1f us  %6.1fx\n",
      static_cast<unsigned long long>(range_len), merged_us, full_us,
      speedup, merged_vt_us, full_vt_us, vt_speedup);
}
BENCHMARK(BM_ScanSweep)
    ->Arg(10)->Arg(100)->Arg(1000)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// YCSB-E shape through the co-simulation: zipfian start keys, scan
// lengths uniform in [1, 100], 5 % inserts. Arg 0: FlatStore-H+tier;
// arg 1: FlatStore-M.
void BM_YcsbE(benchmark::State& state) {
  const bool masstree = state.range(0) == 1;
  Rig rig = MakeScanRig(masstree);
  core::ServerConfig cfg;
  cfg.num_conns = kConns;
  cfg.client_window = 8;
  cfg.ops_per_conn = OpsPerPoint() / kConns;
  cfg.workload.key_space = BenchKeys(kScanKeys);
  cfg.workload.dist = workload::KeyDist::kZipfian;
  cfg.workload.scan_ratio = 0.95;
  cfg.workload.scan_len_max = 100;
  cfg.workload.value_len = 64;
  RunPoint(state, rig.adapter.get(), cfg, &g_table,
           masstree ? "FlatStore-M" : "FlatStore-H+tier", "ycsb-e 95:5");
}
BENCHMARK(BM_YcsbE)->Arg(0)->Arg(1)->Iterations(1)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  flatstore::bench::BenchJson json("scan");
  flatstore::bench::g_json = &json;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flatstore::bench::g_table.Print();
  // The simulation rows ride in the same JSON as the micro rows.
  flatstore::bench::g_table.WriteJson("scan_sim");
  json.Write();
  return 0;
}
