// RunCluster tests. The load-bearing claim: a one-shard cluster is
// byte-for-byte RunServer — same request stream, same simulated clocks,
// same latency distribution — because the single-shard path *is* the
// shared serving loop, not a parallel implementation of it. Plus the
// sharded sanity checks: ops are conserved across shards and every key
// lands on exactly the shard the consistent-hash router names.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/flatstore.h"
#include "core/server.h"
#include "net/shard_router.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"

namespace flatstore {
namespace core {
namespace {

// One self-contained engine: device + pool + store + adapter.
struct Node {
  std::unique_ptr<pm::PmDevice> device;
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<FlatStore> store;
  std::unique_ptr<FlatStoreAdapter> adapter;
};

Node MakeNode() {
  Node n;
  n.device = std::make_unique<pm::PmDevice>();
  pm::PmPool::Options po;
  po.size = 256ull << 20;
  po.device = n.device.get();
  n.pool = std::make_unique<pm::PmPool>(po);
  FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.hash_initial_depth = 5;
  n.store = FlatStore::Create(n.pool.get(), fo);
  n.adapter = std::make_unique<FlatStoreAdapter>(n.store.get());
  return n;
}

ServerConfig SmallConfig() {
  ServerConfig cfg;
  cfg.num_conns = 12;
  cfg.client_window = 8;
  cfg.ops_per_conn = 500;
  cfg.workload.key_space = 1 << 12;
  cfg.workload.value_len = 64;
  cfg.workload.get_ratio = 0.3;
  cfg.seed = 7;
  return cfg;
}

TEST(Cluster, SingleShardMatchesRunServerExactly) {
  const ServerConfig cfg = SmallConfig();

  Node solo = MakeNode();
  const ServerResult server = RunServer(solo.adapter.get(), cfg);

  Node shard = MakeNode();
  const ClusterResult cluster = RunCluster({shard.adapter.get()}, cfg);

  EXPECT_EQ(cluster.ops, server.ops);
  EXPECT_EQ(cluster.sim_ns, server.sim_ns);
  EXPECT_DOUBLE_EQ(cluster.mops, server.mops);
  EXPECT_EQ(cluster.latency.Percentile(50), server.latency.Percentile(50));
  EXPECT_EQ(cluster.latency.Percentile(99), server.latency.Percentile(99));
  ASSERT_EQ(cluster.shards.size(), 1u);
  EXPECT_EQ(cluster.shards[0].ops, server.ops);
}

TEST(Cluster, TwoShardsConserveOpsAndPartitionKeys) {
  ServerConfig cfg = SmallConfig();
  cfg.workload.get_ratio = 0.0;  // Put-only so stores fill deterministically

  Node a = MakeNode();
  Node b = MakeNode();
  const ClusterResult result =
      RunCluster({a.adapter.get(), b.adapter.get()}, cfg);

  // Every issued request completed somewhere, exactly once.
  const uint64_t expected =
      static_cast<uint64_t>(cfg.num_conns) * cfg.ops_per_conn;
  EXPECT_EQ(result.ops, expected);
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_EQ(result.shards[0].ops + result.shards[1].ops, expected);
  EXPECT_GT(result.shards[0].ops, 0u);
  EXPECT_GT(result.shards[1].ops, 0u);

  // Each written key lives on the shard the router names — and only
  // there. The test ring must match RunCluster's (default vnodes + seed).
  net::ShardRouter router;
  router.AddShard(0);
  router.AddShard(1);
  uint64_t checked = 0;
  for (uint64_t key = 0; key < cfg.workload.key_space; key++) {
    std::string va;
    std::string vb;
    const bool on_a = a.store->Get(key, &va);
    const bool on_b = b.store->Get(key, &vb);
    if (!on_a && !on_b) continue;  // key never drawn by the workload
    checked++;
    EXPECT_NE(on_a, on_b) << "key " << key << " on both shards";
    EXPECT_EQ(router.ShardForKey(key), on_a ? 0 : 1) << "key " << key;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Cluster, OpenLoopAggregatesAcrossShards) {
  ServerConfig cfg = SmallConfig();
  cfg.open_loop = true;
  cfg.offered_mops = 1.0;

  Node a = MakeNode();
  Node b = MakeNode();
  const ClusterResult result =
      RunCluster({a.adapter.get(), b.adapter.get()}, cfg);

  const uint64_t expected =
      static_cast<uint64_t>(cfg.num_conns) * cfg.ops_per_conn;
  EXPECT_EQ(result.ops, expected);
  // Achieved rate can't beat offered by more than schedule jitter.
  EXPECT_LT(result.mops, cfg.offered_mops * 1.1);
  EXPECT_GT(result.mops, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace flatstore
