// NUMA placement tests: the vt socket surcharges, the allocator's
// per-socket chunk pools (and the placement-off interleave mode), the
// engine's socket-aligned HB groups, every scannable engine variant
// against a model on two sockets, and — the end-to-end claim — that
// socket-local placement beats interleaved spread on a two-socket rig.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "core/flatstore.h"
#include "core/server.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace {

std::unique_ptr<pm::PmPool> TwoSocketPool(pm::PmDevice* dev,
                                          uint64_t size = 256ull << 20) {
  pm::PmPool::Options o;
  o.size = size;
  o.device = dev;
  o.num_sockets = 2;
  return std::make_unique<pm::PmPool>(o);
}

TEST(NumaVt, RemoteLoadSurchargeFollowsCurrentSocket) {
  vt::Clock clock;
  clock.set_socket(0);
  vt::ScopedClock bind(&clock);
  EXPECT_EQ(vt::RemoteLoadSurcharge(0), 0u);
  EXPECT_EQ(vt::RemoteLoadSurcharge(1), vt::kRemoteSocketLoadPenalty);
  EXPECT_EQ(vt::RemoteLoadSurcharge(vt::kSocketNone), 0u);
  EXPECT_EQ(vt::RemoteLoadSurcharge(vt::kSocketInterleaved),
            vt::kRemoteSocketLoadPenalty / 2);
}

TEST(NumaVt, ChargeMissAtAddsSurchargeForRemoteHome) {
  vt::Clock clock;
  clock.set_socket(1);
  vt::ScopedClock bind(&clock);
  const uint64_t t0 = clock.now();
  vt::ChargeMissAt(/*home_socket=*/1, vt::kCpuCacheMiss);
  const uint64_t local = clock.now() - t0;
  const uint64_t t1 = clock.now();
  vt::ChargeMissAt(/*home_socket=*/0, vt::kCpuCacheMiss);
  const uint64_t remote = clock.now() - t1;
  EXPECT_EQ(remote - local, vt::kRemoteSocketLoadPenalty);
}

TEST(NumaPool, SocketSpansAreContiguousHalves) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  EXPECT_EQ(pool->num_sockets(), 2);
  EXPECT_EQ(pool->SocketOf(0), 0);
  EXPECT_EQ(pool->SocketOf(pool->size() - 1), 1);
}

TEST(NumaAlloc, FreeChunksPooledPerSocket) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/4);
  const uint64_t total = alloc.free_chunks();
  EXPECT_GT(total, 0u);
  EXPECT_EQ(alloc.free_chunks_on(0) + alloc.free_chunks_on(1), total);
  EXPECT_GT(alloc.free_chunks_on(0), 0u);
  EXPECT_GT(alloc.free_chunks_on(1), 0u);
}

TEST(NumaAlloc, SocketForCoreSplitsContiguously) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/8);
  for (int c = 0; c < 4; c++) EXPECT_EQ(alloc.SocketForCore(c), 0) << c;
  for (int c = 4; c < 8; c++) EXPECT_EQ(alloc.SocketForCore(c), 1) << c;
}

TEST(NumaAlloc, RawChunksComeFromTheCoresSocket) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/2);
  const uint64_t a = alloc.AllocRawChunk(/*core=*/0);
  const uint64_t b = alloc.AllocRawChunk(/*core=*/1);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(pool->SocketOf(a), 0);
  EXPECT_EQ(pool->SocketOf(b), 1);
}

TEST(NumaAlloc, LocalExhaustionFallsBackToRemoteSocket) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev, 64ull << 20);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/2);
  // Drain socket 0's pool through core 0.
  while (alloc.free_chunks_on(0) > 0) {
    ASSERT_NE(alloc.AllocRawChunk(0), 0u);
  }
  ASSERT_GT(alloc.free_chunks_on(1), 0u);
  // Capacity beats locality: core 0 now gets a socket-1 chunk.
  const uint64_t off = alloc.AllocRawChunk(0);
  ASSERT_NE(off, 0u);
  EXPECT_EQ(pool->SocketOf(off), 1);
}

TEST(NumaAlloc, InterleaveModeDealsRoundRobin) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  alloc::LazyAllocator alloc(pool.get(), alloc::kChunkSize,
                             pool->size() - alloc::kChunkSize, /*num_cores=*/2);
  alloc.SetSocketInterleave(true);
  std::vector<int> sockets;
  for (int i = 0; i < 4; i++) {
    const uint64_t off = alloc.AllocRawChunk(/*core=*/0);
    ASSERT_NE(off, 0u);
    sockets.push_back(pool->SocketOf(off));
  }
  EXPECT_EQ(sockets, (std::vector<int>{0, 1, 0, 1}));
}

TEST(NumaEngine, GroupSizeShrinksToSocketBoundary) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  core::FlatStoreOptions fo;
  fo.num_cores = 8;
  fo.group_size = 8;  // straddles both sockets
  fo.hash_initial_depth = 4;
  auto store = core::FlatStore::Create(pool.get(), fo);
  EXPECT_EQ(store->options().group_size, 4);
  EXPECT_EQ(store->SocketForCore(0), 0);
  EXPECT_EQ(store->SocketForCore(7), 1);
}

TEST(NumaEngine, PlacementOffKeepsRequestedGroupSize) {
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  core::FlatStoreOptions fo;
  fo.num_cores = 8;
  fo.group_size = 8;
  fo.hash_initial_depth = 4;
  fo.socket_local_placement = false;
  auto store = core::FlatStore::Create(pool.get(), fo);
  EXPECT_EQ(store->options().group_size, 8);
}

// Every scannable engine variant on a two-socket pool, with placement on
// and off, at a core count below and above the socket count: Put, Delete,
// Get and Scan agree with a std::map model, and everything reads back
// after a clean Shutdown and Open. One core on two sockets is the corner
// a per-socket index layout must not trip over.
struct NumaVariant {
  const char* name;
  core::IndexKind index;
  bool tier;
};

class NumaEngineVariants
    : public ::testing::TestWithParam<std::tuple<NumaVariant, bool, int>> {};

TEST_P(NumaEngineVariants, OracleAgreesAcrossShutdownAndOpen) {
  const auto& [variant, placed, cores] = GetParam();
  pm::PmDevice dev(2);
  auto pool = TwoSocketPool(&dev);
  core::FlatStoreOptions fo;
  fo.num_cores = cores;
  fo.group_size = cores;
  fo.hash_initial_depth = 4;
  fo.index = variant.index;
  fo.tier_enabled = variant.tier;
  fo.socket_local_placement = placed;
  auto store = core::FlatStore::Create(pool.get(), fo);
  ASSERT_TRUE(store->CanScan());

  constexpr uint64_t kKeys = 1500;
  std::map<uint64_t, std::string> model;
  auto value_for = [](uint64_t k, int round) {
    return std::string(16 + k % 48, static_cast<char>('a' + (k + round) % 26));
  };
  for (uint64_t k = 0; k < kKeys; k++) {
    store->Put(k, value_for(k, 0));
    model[k] = value_for(k, 0);
  }
  for (uint64_t k = 0; k < kKeys; k += 5) {
    ASSERT_TRUE(store->Delete(k)) << k;
    model.erase(k);
  }
  // The tier converts sealed chunks once the puts below have moved the
  // durable tails past them.
  if (variant.tier) store->SealActiveLogChunks();
  for (uint64_t k = 1; k < kKeys; k += 3) {
    store->Put(k, value_for(k, 1));
    model[k] = value_for(k, 1);
  }
  if (variant.tier) {
    ASSERT_GT(store->RunTieringOnce(), 0u);
  }
  ASSERT_FALSE(store->Delete(kKeys + 7));

  auto check = [&](core::FlatStore* s) {
    EXPECT_EQ(s->Size(), model.size());
    std::string got;
    for (uint64_t k = 0; k < kKeys + 10; k++) {
      auto it = model.find(k);
      ASSERT_EQ(s->Get(k, &got), it != model.end()) << k;
      if (it != model.end()) {
        ASSERT_EQ(got, it->second) << k;
      }
    }
    for (uint64_t start : {0ull, 1ull, 333ull, 1490ull}) {
      std::vector<std::pair<uint64_t, std::string>> rows;
      s->Scan(start, 64, &rows);
      std::vector<std::pair<uint64_t, std::string>> want;
      for (auto it = model.lower_bound(start);
           it != model.end() && want.size() < 64; ++it) {
        want.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(rows, want) << "scan from " << start;
    }
  };
  check(store.get());
  store->Shutdown();
  store.reset();
  auto reopened = core::FlatStore::Open(pool.get(), fo);
  check(reopened.get());
}

INSTANTIATE_TEST_SUITE_P(
    TwoSocket, NumaEngineVariants,
    ::testing::Combine(
        ::testing::Values(
            NumaVariant{"HashTier", core::IndexKind::kHash, true},
            NumaVariant{"Masstree", core::IndexKind::kMasstree, false},
            NumaVariant{"FastFair", core::IndexKind::kFastFairVolatile,
                        false}),
        ::testing::Bool(), ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_Placed" : "_Spread") + "_" +
             std::to_string(std::get<2>(info.param)) + "Cores";
    });

// End to end: a two-socket Put run with socket-local placement must beat
// the interleaved-spread configuration (remote persists on ~half the
// flush traffic, half-surcharged index misses).
TEST(NumaEngine, SocketLocalPlacementBeatsSpread) {
  auto run = [](bool placed) {
    auto dev = std::make_unique<pm::PmDevice>(2);
    pm::PmPool::Options po;
    po.size = 512ull << 20;
    po.device = dev.get();
    po.num_sockets = 2;
    auto pool = std::make_unique<pm::PmPool>(po);
    core::FlatStoreOptions fo;
    fo.num_cores = 8;
    fo.group_size = 4;
    fo.hash_initial_depth = 5;
    fo.socket_local_placement = placed;
    auto store = core::FlatStore::Create(pool.get(), fo);
    core::FlatStoreAdapter adapter(store.get());
    core::ServerConfig cfg;
    cfg.num_conns = 24;
    cfg.client_window = 8;
    cfg.ops_per_conn = 400;
    cfg.workload.key_space = 1 << 14;
    cfg.workload.value_len = 64;
    return core::RunServer(&adapter, cfg).mops;
  };
  const double placed = run(true);
  const double spread = run(false);
  EXPECT_GT(placed, spread);
}

}  // namespace
}  // namespace flatstore
