// Self-test of the benchmark: the shim must be invisible to the engine's
// simulated time, and the oracle must catch the faults it exists for.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/server.h"
#include "oracle.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "runner.h"
#include "shim.h"

namespace perfbench {
namespace {

namespace core = flatstore::core;
namespace pm = flatstore::pm;

struct Store {
  std::unique_ptr<pm::PmDevice> device;
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<core::FlatStore> store;
};

Store MakeStore(const core::FlatStoreOptions& fo) {
  Store s;
  s.device = std::make_unique<pm::PmDevice>(1);
  pm::PmPool::Options po;
  po.size = 256ull << 20;
  po.device = s.device.get();
  po.crash_tracking = true;
  s.pool = std::make_unique<pm::PmPool>(po);
  s.store = core::FlatStore::Create(s.pool.get(), fo);
  return s;
}

core::FlatStoreOptions SmallOptions(bool tier) {
  core::FlatStoreOptions fo;
  fo.num_cores = 4;
  fo.group_size = 4;
  fo.tier_enabled = tier;
  return fo;
}

core::ServerConfig SmallConfig(bool scans) {
  core::ServerConfig cfg;
  cfg.num_conns = 16;
  cfg.client_window = 8;
  cfg.ops_per_conn = 400;
  cfg.seed = 42;
  cfg.workload.key_space = 1 << 12;
  cfg.workload.dist = flatstore::workload::KeyDist::kZipfian;
  if (scans) {
    cfg.workload.scan_ratio = 0.5;
    cfg.workload.scan_len_max = 20;
  } else {
    cfg.workload.get_ratio = 0.5;
    cfg.workload.etc_values = true;
  }
  return cfg;
}

void ExpectSameResult(const core::ServerResult& a,
                      const core::ServerResult& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.core_ns, b.core_ns);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.Mean(), b.latency.Mean());
  EXPECT_EQ(a.latency.Percentile(50), b.latency.Percentile(50));
  EXPECT_EQ(a.latency.Percentile(99), b.latency.Percentile(99));
  EXPECT_EQ(a.latency.max(), b.latency.max());
}

// Same seed, same store: the run through the shim (stamping, oracle,
// read and scan checks, tracing) reports the identical ServerResult.
void CheckTransparent(bool scans, bool open_loop) {
  core::ServerConfig cfg = SmallConfig(scans);
  cfg.open_loop = open_loop;
  cfg.offered_mops = 2.0;

  Store plain = MakeStore(SmallOptions(scans));
  core::FlatStoreAdapter adapter(plain.store.get());
  core::Preload(&adapter, cfg.workload, cfg.workload.key_space);
  if (scans) {
    while (plain.store->RunTieringOnce() > 0) {
    }
  }
  core::ServerResult want = core::RunServer(&adapter, cfg);

  Store shimmed = MakeStore(SmallOptions(scans));
  Oracle oracle(cfg.workload.key_space);
  BenchShim shim(shimmed.store.get(), &oracle);
  Tracer tracer(1 << 12);
  shim.set_tracer(&tracer);
  shim.set_scan_check_every(scans ? 7 : 0);
  core::Preload(&shim, cfg.workload, cfg.workload.key_space);
  if (scans) {
    while (shimmed.store->RunTieringOnce() > 0) {
    }
  }
  core::ServerResult got = core::RunServer(&shim, cfg);

  ExpectSameResult(want, got);
  EXPECT_EQ(shim.failures().total(), 0u);
  EXPECT_GT(tracer.stats(Layer::kDrain).calls, 0u);
  if (scans) {
    EXPECT_GT(shim.counters().scans_checked, 0u);
  }
}

TEST(ShimTest, ForwardsFaithfullyClosedLoop) { CheckTransparent(false, false); }
TEST(ShimTest, ForwardsFaithfullyOpenLoop) { CheckTransparent(false, true); }
TEST(ShimTest, ForwardsFaithfullyScansWithTier) {
  CheckTransparent(true, false);
}

// Synchronous put through the shim: admit, then pump/drain until acked.
void ShimPut(BenchShim* shim, uint64_t key, uint32_t len) {
  std::vector<uint8_t> value(len, 0x5A);
  const int core = shim->CoreForKey(key);
  static uint64_t tag = 1 << 30;
  tag++;
  ASSERT_EQ(shim->SubmitPut(core, key, value.data(), len, tag),
            core::EngineAdapter::Submit::kPending);
  std::vector<core::EngineAdapter::Done> done;
  while (shim->Drain(core, &done) == 0) shim->Pump(core);
}

TEST(OracleTest, CatchesLostWriteAndCorruptValue) {
  constexpr uint64_t kKeys = 1024;
  constexpr uint32_t kLen = 48;
  Store s = MakeStore(SmallOptions(false));
  Oracle oracle(kKeys);
  BenchShim shim(s.store.get(), &oracle);
  flatstore::workload::Config wl;
  wl.key_space = kKeys;
  wl.value_len = kLen;
  core::Preload(&shim, wl, kKeys);  // every key at version 1
  const uint64_t lost_key = 7, corrupt_key = 11;
  ShimPut(&shim, lost_key, kLen);  // version 2, acknowledged
  ShimPut(&shim, corrupt_key, kLen);
  ASSERT_EQ(oracle.Acked(lost_key).seq, 2u);

  // Lost write: the engine ends up holding version 1 again.
  Oracle replay(kKeys);
  std::vector<uint8_t> old(kLen);
  const std::vector<uint8_t> fill(kLen, 0x5A);
  replay.StampPut(lost_key, fill.data(), kLen, old.data());
  s.store->Put(lost_key, std::string(old.begin(), old.end()));
  // Corrupted value: one flipped byte in the acknowledged version.
  std::string cur;
  ASSERT_TRUE(s.store->Get(corrupt_key, &cur));
  cur.back() ^= 1;
  s.store->Put(corrupt_key, cur);

  // Served reads catch both.
  core::ReadResult res[2];
  const uint64_t keys[2] = {lost_key, corrupt_key};
  shim.MultiGet(s.store->CoreForKey(lost_key), &keys[0], 1, &res[0]);
  shim.MultiGet(s.store->CoreForKey(corrupt_key), &keys[1], 1, &res[1]);
  EXPECT_EQ(shim.failures().wrong_reads, 2u);

  // So does the post-crash check, telling the two apart.
  s.store.reset();
  s.pool->SimulateCrash();
  s.store = core::FlatStore::Open(s.pool.get(), SmallOptions(false));
  shim.VerifyAll(s.store.get());
  EXPECT_EQ(shim.failures().lost_writes, 1u);
  EXPECT_EQ(shim.failures().corrupt_values, 1u);
  // Every mismatch is a failed op: failed_ratio's numerator counts all.
  EXPECT_EQ(shim.failures().total(), 4u);
}

TEST(OracleTest, IntactStoreVerifiesClean) {
  constexpr uint64_t kKeys = 1024;
  Store s = MakeStore(SmallOptions(false));
  Oracle oracle(kKeys);
  BenchShim shim(s.store.get(), &oracle);
  flatstore::workload::Config wl;
  wl.key_space = kKeys;
  wl.etc_values = true;
  core::Preload(&shim, wl, kKeys);
  for (uint64_t k = 0; k < kKeys; k += 3) ShimPut(&shim, k, 5);
  s.store.reset();
  s.pool->SimulateCrash();
  s.store = core::FlatStore::Open(s.pool.get(), SmallOptions(false));
  shim.VerifyAll(s.store.get());
  EXPECT_EQ(shim.failures().total(), 0u);
}

TEST(PercentileTest, InterpolatesInsideBuckets) {
  flatstore::Histogram h;
  for (uint64_t v = 1000; v < 2000; v++) h.Record(v);
  const double p50 = InterpolatedPercentile(h, 50);
  const double p99 = InterpolatedPercentile(h, 99);
  EXPECT_NEAR(p50, 1500, 40);
  EXPECT_NEAR(p99, 1990, 40);
  EXPECT_LT(p50, p99);
}

}  // namespace
}  // namespace perfbench
