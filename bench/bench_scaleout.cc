// Scale-out headline: aggregate throughput across sockets × shards ×
// client nodes.
//
// Three sweeps plus an open-loop saturation set, all 64 B Puts:
//
//  * socket scaling (one shard) — 1-socket/8-core vs 2-socket/16-core
//    with NUMA placement on and off. Placement on should land near 2×
//    (per-socket DIMM sets double the PM bandwidth and every core's
//    persists, chunks, and index probes stay local); placement off pays
//    remote persists on ~half the flush traffic plus interleaved index
//    misses, and lands visibly below the placed arm.
//  * shard scaling — 1/2/4 independent one-socket shards behind the
//    consistent-hash router, one shared client fleet. Shards share
//    nothing, so aggregate Mops/s should scale near-linearly.
//  * client nodes — fixed 2-shard cluster under a growing fleet.
//  * open loop — the 2-shard cluster under Poisson offered load below,
//    near, and beyond saturation.
//
// Aggregate rows carry cluster-level metrics; per-shard rows (system
// "per-shard") expose each shard's p50/p99 so imbalance is visible.

#include "bench_common.h"

namespace flatstore {
namespace bench {
namespace {

Table g_table("Scale-out: sockets x shards x client nodes (64B Put)");

struct ClusterRig {
  std::vector<Rig> rigs;
  std::vector<core::EngineAdapter*> adapters;
};

ClusterRig MakeCluster(int nshards, int sockets, int cores_per_shard,
                       bool placement, uint64_t pool_mb) {
  ClusterRig cluster;
  cluster.rigs.reserve(static_cast<size_t>(nshards));
  for (int s = 0; s < nshards; s++) {
    core::FlatStoreOptions fo;
    fo.num_cores = cores_per_shard;
    // Socket-sized groups (the paper's choice); the engine re-aligns the
    // group to the socket boundary when placement is on.
    fo.group_size =
        sockets > 1 ? (cores_per_shard + sockets - 1) / sockets
                    : cores_per_shard;
    fo.hash_initial_depth = 6;
    fo.socket_local_placement = placement;
    cluster.rigs.push_back(MakeFlatRig(fo, pool_mb, sockets));
    cluster.adapters.push_back(cluster.rigs.back().adapter.get());
  }
  return cluster;
}

core::ServerConfig BaseConfig(int conns) {
  core::ServerConfig cfg;
  cfg.num_conns = conns;
  cfg.client_window = 8;
  cfg.ops_per_conn =
      std::max<uint64_t>(1, OpsPerPoint() / static_cast<uint64_t>(conns));
  cfg.workload.key_space = kKeySpace;
  cfg.workload.value_len = 64;
  return cfg;
}

void AddClusterRows(const core::ClusterResult& result, const char* label) {
  Row row;
  row.system = "aggregate";
  row.config = label;
  row.mops = result.mops;
  row.ops = result.ops;
  row.sim_ns = result.sim_ns;
  row.p50_ns = result.latency.Percentile(50);
  row.p99_ns = result.latency.Percentile(99);
  g_table.Add(row);
  for (size_t s = 0; s < result.shards.size(); s++) {
    const core::ServerResult& sh = result.shards[s];
    Row r;
    r.system = "per-shard";
    r.config = std::string(label) + "/s" + std::to_string(s);
    r.mops = sh.mops;
    r.ops = sh.ops;
    r.sim_ns = sh.sim_ns;
    r.p50_ns = sh.latency.Percentile(50);
    r.p99_ns = sh.latency.Percentile(99);
    g_table.Add(r);
  }
}

void RunClusterPoint(benchmark::State& state, int nshards, int sockets,
                     int cores_per_shard, bool placement, int conns,
                     uint64_t pool_mb, const char* label,
                     double offered_mops = 0) {
  ClusterRig cluster =
      MakeCluster(nshards, sockets, cores_per_shard, placement, pool_mb);
  core::ServerConfig cc = BaseConfig(conns);
  if (offered_mops > 0) {
    cc.open_loop = true;
    cc.offered_mops = offered_mops;
  }
  core::ClusterResult result;
  for (auto _ : state) {
    result = core::RunCluster(cluster.adapters, cc);
  }
  state.counters["agg_mops"] = result.mops;
  AddClusterRows(result, label);
}

// ---- socket scaling (single shard, placement A/B) ----

// Weak scaling: the client fleet grows with the server (6 connections
// per core, the kConns:kCores default ratio) so neither arm is
// client-bound.
void BM_Sockets(benchmark::State& state) {
  switch (state.range(0)) {
    case 0:
      RunClusterPoint(state, 1, 1, 8, true, 48, 1024, "sock1");
      break;
    case 1:
      RunClusterPoint(state, 1, 2, 16, true, 96, 1024, "sock2-placed");
      break;
    default:
      RunClusterPoint(state, 1, 2, 16, false, 96, 1024, "sock2-spread");
      break;
  }
}
BENCHMARK(BM_Sockets)->Arg(0)->Arg(1)->Arg(2)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- shard scaling (one-socket shards behind the router) ----

void BM_Shards(benchmark::State& state) {
  const int nshards = static_cast<int>(state.range(0));
  const std::string label = "shards" + std::to_string(nshards);
  // Weak scaling again: 48 client connections per 8-core shard.
  RunClusterPoint(state, nshards, 1, 8, true, 48 * nshards, 512,
                  label.c_str());
}
BENCHMARK(BM_Shards)->Arg(1)->Arg(2)->Arg(4)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- client-node sweep (fixed 2-shard cluster) ----

void BM_ClientNodes(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const std::string label = "shards2-conns" + std::to_string(conns);
  RunClusterPoint(state, 2, 1, 8, true, conns, 512, label.c_str());
}
BENCHMARK(BM_ClientNodes)->Arg(24)->Arg(48)->Arg(96)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- open-loop offered load (2-shard cluster) ----

void BM_OpenLoop(benchmark::State& state) {
  const double offered =
      static_cast<double>(state.range(0)) / 10.0;  // tenths of a Mops
  char label[48];
  std::snprintf(label, sizeof(label), "shards2-offered=%.1f", offered);
  RunClusterPoint(state, 2, 1, 8, true, kConns, 512, label, offered);
}
BENCHMARK(BM_OpenLoop)->Arg(20)->Arg(80)->Arg(320)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace flatstore

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flatstore::bench::g_table.MetaInt("sockets", 2).MetaInt("shards", 4);
  flatstore::bench::g_table.Print();
  flatstore::bench::g_table.WriteJson("scaleout");
  return 0;
}
