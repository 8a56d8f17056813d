// End-to-end tests of the server runtime: simulated clients drive engines
// over FlatRPC; completion counts, data integrity, latency sanity, mixed
// workloads, and engine interchangeability under the identical setup.

#include <gtest/gtest.h>

#include "core/server.h"

namespace flatstore {
namespace core {
namespace {

struct Harness {
  explicit Harness(IndexKind kind = IndexKind::kHash, int cores = 4) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pool = std::make_unique<pm::PmPool>(o);
    FlatStoreOptions fo;
    fo.num_cores = cores;
    fo.group_size = cores;
    fo.index = kind;
    store = FlatStore::Create(pool.get(), fo);
    adapter = std::make_unique<FlatStoreAdapter>(store.get());
  }
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<FlatStore> store;
  std::unique_ptr<FlatStoreAdapter> adapter;
};

TEST(Server, AllOpsCompleteAndLand) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 4096;
  cfg.workload.value_len = 64;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_GT(r.sim_ns, 0u);
  EXPECT_GT(r.mops, 0.0);
  EXPECT_EQ(r.latency.count(), 8000u);
  // All puts landed: every key that was put is readable with 64 B.
  EXPECT_GT(h.store->Size(), 1000u);
  EXPECT_LE(h.store->Size(), 4096u);
}

TEST(Server, LatencyIsAtLeastOneRoundTrip) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 1;
  cfg.client_window = 1;
  cfg.ops_per_conn = 500;
  cfg.workload.key_space = 1024;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_GE(r.latency.min(), 2 * vt::kNetOneWay);
  EXPECT_LT(r.latency.Percentile(99), 100000u) << "latency blew up";
}

TEST(Server, MixedWorkloadWithGetsAndDeletes) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2500;
  cfg.workload.key_space = 2048;
  cfg.workload.get_ratio = 0.5;
  cfg.workload.delete_ratio = 0.05;
  cfg.workload.dist = workload::KeyDist::kZipfian;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 10000u);
}

TEST(Server, EtcWorkloadRuns) {
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 1 << 16;
  cfg.workload.etc_values = true;
  cfg.workload.dist = workload::KeyDist::kZipfian;
  cfg.workload.get_ratio = 0.5;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 8000u);
}

TEST(Server, MasstreeEngineWorksToo) {
  Harness h(IndexKind::kMasstree, 2);
  ServerConfig cfg;
  cfg.num_conns = 2;
  cfg.ops_per_conn = 1500;
  cfg.workload.key_space = 2048;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 3000u);
  EXPECT_GT(h.store->Size(), 500u);
}

TEST(Server, BaselineEngineUnderSameHarness) {
  pm::PmPool::Options o;
  o.size = 512ull << 20;
  pm::PmPool pool(o);
  BaselineStore::Options bo;
  bo.num_cores = 4;
  bo.kind = BaselineKind::kCceh;
  auto store = BaselineStore::Create(&pool, bo);
  BaselineAdapter adapter(store.get());
  ServerConfig cfg;
  cfg.num_conns = 4;
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 4096;
  ServerResult r = RunServer(&adapter, cfg);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_GT(r.mops, 0.0);
}

TEST(Server, PipelinedHbBeatsNoBatchingInSimTime) {
  // The core performance claim, end to end: with many connections posting
  // concurrently, pipelined HB yields higher simulated throughput than
  // per-request persists (kNone).
  auto run = [](batch::BatchMode mode) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pm::PmDevice device;
    o.device = &device;
    pm::PmPool pool(o);
    FlatStoreOptions fo;
    fo.num_cores = 4;
    fo.group_size = 4;
    fo.batch_mode = mode;
    auto store = FlatStore::Create(&pool, fo);
    FlatStoreAdapter adapter(store.get());
    ServerConfig cfg;
    cfg.num_conns = 8;
    cfg.ops_per_conn = 3000;
    cfg.workload.key_space = 1 << 16;
    cfg.workload.value_len = 64;
    return RunServer(&adapter, cfg).mops;
  };
  double pipelined = run(batch::BatchMode::kPipelinedHB);
  double none = run(batch::BatchMode::kNone);
  EXPECT_GT(pipelined, none * 1.2)
      << "pipelined=" << pipelined << " none=" << none;
}

TEST(Server, GetAfterPutSameKeySeesTheWrite) {
  // The conflict queue's purpose (paper 3.3 Discussion): a Get posted
  // after a Put on the same key must not be reordered ahead of it. With a
  // single connection and one hot key, every Get must observe the
  // preceding Put (responses are FIFO per connection).
  Harness h;
  ServerConfig cfg;
  cfg.num_conns = 1;
  cfg.client_window = 8;  // Put and Get in flight together
  cfg.ops_per_conn = 2000;
  cfg.workload.key_space = 1;  // a single, maximally hot key
  cfg.workload.value_len = 32;
  cfg.workload.get_ratio = 0.5;
  ServerResult r = RunServer(h.adapter.get(), cfg);
  EXPECT_EQ(r.ops, 2000u);
  // After the run the key must hold the last Put's value (32 bytes).
  std::string v;
  ASSERT_TRUE(h.store->Get(0, &v));
  EXPECT_EQ(v.size(), 32u);
}

TEST(Server, DeterministicAcrossRuns) {
  // The co-simulation must be bit-for-bit repeatable for a given seed.
  auto run = [] {
    Harness h;
    ServerConfig cfg;
    cfg.num_conns = 8;
    cfg.ops_per_conn = 1500;
    cfg.workload.key_space = 4096;
    cfg.workload.dist = workload::KeyDist::kZipfian;
    return RunServer(h.adapter.get(), cfg);
  };
  ServerResult a = run();
  ServerResult b = run();
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.latency.Percentile(99), b.latency.Percentile(99));
}

TEST(Server, PreloadPopulatesKeys) {
  Harness h;
  workload::Config w;
  w.key_space = 1000;
  w.value_len = 32;
  Preload(h.adapter.get(), w, 1000);
  EXPECT_EQ(h.store->Size(), 1000u);
  std::string v;
  EXPECT_TRUE(h.store->Get(999, &v));
  EXPECT_EQ(v.size(), 32u);
}

}  // namespace
}  // namespace core
}  // namespace flatstore
