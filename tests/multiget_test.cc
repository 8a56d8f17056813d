// Batched read pipeline tests.
//
//  * Index contract: PrefetchGet + GetWithHint must agree with Get on
//    every index, including absent keys, a default (invalid) hint —
//    which takes the base-class fallback — and a hint made stale by
//    splits/resizes between the two phases.
//  * Engine: MultiGetOnCore must match single reads (Get, a MultiGet of
//    one key) key-for-key across all three index kinds (mixed
//    inline/out-of-log values, absent keys, tombstones), defer keys with
//    in-flight writes, and serve them after the drain with the
//    post-drain value (linearizability).
//  * Server: batches of 16 must complete the identical workload as
//    batches of one (read_batch=1, each Get served as it is admitted —
//    the same pipeline, submitted per request).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/server.h"
#include "index/cceh.h"
#include "index/fast_fair.h"
#include "index/fptree.h"
#include "index/kv_index.h"
#include "index/level_hashing.h"
#include "index/masstree.h"

namespace flatstore {
namespace {

// ---- index-level contract --------------------------------------------------

using Factory = std::unique_ptr<index::KvIndex> (*)(const index::PmContext&);

struct IndexCase {
  const char* name;
  Factory make;
};

std::unique_ptr<index::KvIndex> MakeCceh(const index::PmContext& ctx) {
  return std::make_unique<index::Cceh>(ctx, /*initial_depth=*/2);
}
std::unique_ptr<index::KvIndex> MakeLevel(const index::PmContext& ctx) {
  return std::make_unique<index::LevelHashing>(ctx, /*initial_level_bits=*/4);
}
std::unique_ptr<index::KvIndex> MakeFastFair(const index::PmContext& ctx) {
  return std::make_unique<index::FastFair>(ctx);
}
std::unique_ptr<index::KvIndex> MakeFpTree(const index::PmContext& ctx) {
  return std::make_unique<index::FpTree>(ctx);
}
std::unique_ptr<index::KvIndex> MakeMasstree(const index::PmContext& ctx) {
  return std::make_unique<index::Masstree>(ctx);
}

const IndexCase kCases[] = {
    {"CCEH", MakeCceh},
    {"LevelHashing", MakeLevel},
    {"FastFair", MakeFastFair},
    {"FPTree", MakeFpTree},  // no override: exercises the base fallback
    {"Masstree", MakeMasstree},
};

class TwoPhaseLookupTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  std::unique_ptr<index::KvIndex> Make() {
    return GetParam().make(index::PmContext{});
  }
};

TEST_P(TwoPhaseLookupTest, AgreesWithGetIncludingAbsentKeys) {
  auto idx = Make();
  for (uint64_t k = 0; k < 512; k++) idx->Insert(k * 2, k * 2 + 1000);
  for (uint64_t k = 0; k < 1024; k++) {
    uint64_t direct = 0, hinted = 0;
    const bool found = idx->Get(k, &direct);
    index::LookupHint hint;
    idx->PrefetchGet(k, &hint);
    ASSERT_EQ(idx->GetWithHint(k, hint, &hinted), found) << "key " << k;
    if (found) {
      EXPECT_EQ(hinted, direct) << "key " << k;
    }
  }
}

TEST_P(TwoPhaseLookupTest, DefaultHintFallsBackToFullLookup) {
  auto idx = Make();
  idx->Insert(7, 77);
  index::LookupHint hint;  // valid=false: never prefetched
  uint64_t v = 0;
  ASSERT_TRUE(idx->GetWithHint(7, hint, &v));
  EXPECT_EQ(v, 77u);
  EXPECT_FALSE(idx->GetWithHint(8, hint, &v));
}

// A hint taken before heavy insertion must still resolve correctly after
// the structure reshaped itself (CCEH splits, Level-Hashing resizes,
// tree leaves split) — via revalidation fallback or sibling walks.
TEST_P(TwoPhaseLookupTest, SurvivesStructuralChangesBetweenPhases) {
  auto idx = Make();
  constexpr uint64_t kPinned = 64;
  for (uint64_t k = 0; k < kPinned; k++) idx->Insert(k, k + 500);

  index::LookupHint hints[kPinned];
  for (uint64_t k = 0; k < kPinned; k++) idx->PrefetchGet(k, &hints[k]);

  // Grow the index well past several split/resize thresholds.
  for (uint64_t k = 1000; k < 9000; k++) idx->Insert(k, k);

  for (uint64_t k = 0; k < kPinned; k++) {
    uint64_t v = 0;
    ASSERT_TRUE(idx->GetWithHint(k, hints[k], &v)) << "key " << k;
    EXPECT_EQ(v, k + 500) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, TwoPhaseLookupTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

// ---- engine-level MultiGetOnCore -------------------------------------------

namespace core_tests {

using core::FlatStore;
using core::GetResult;
using core::ReadResult;

struct Store {
  explicit Store(core::IndexKind kind, int cores = 2) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pool = std::make_unique<pm::PmPool>(o);
    core::FlatStoreOptions fo;
    fo.num_cores = cores;
    fo.group_size = cores;
    fo.index = kind;
    fo.hash_initial_depth = 4;
    store = FlatStore::Create(pool.get(), fo);
  }
  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<FlatStore> store;
};

class MultiGetTest : public ::testing::TestWithParam<core::IndexKind> {};

std::string ValueFor(uint64_t key) {
  // Mix inline (<= 256 B) and out-of-log block values.
  const size_t len = (key % 3 == 0) ? 1024 + key % 100 : 16 + key % 200;
  return std::string(len, static_cast<char>('a' + key % 26));
}

TEST_P(MultiGetTest, MatchesSingleGetsWithAbsentAndTombstones) {
  Store s(GetParam());
  constexpr uint64_t kKeys = 300;
  for (uint64_t k = 0; k < kKeys; k++) s.store->Put(k, ValueFor(k));
  // Tombstone every 7th key.
  for (uint64_t k = 0; k < kKeys; k += 7) ASSERT_TRUE(s.store->Delete(k));

  for (int core = 0; core < 2; core++) {
    // Batch the core's keys (present, deleted, and never-written ones).
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < kKeys + 100 && keys.size() < core::kMaxReadBatch;
         k++) {
      if (s.store->CoreForKey(k) == core) keys.push_back(k);
    }
    ASSERT_FALSE(keys.empty());
    std::vector<ReadResult> results(keys.size());
    const size_t served =
        s.store->MultiGetOnCore(core, keys.data(), keys.size(),
                                results.data());
    EXPECT_EQ(served, keys.size()) << "nothing in flight: no deferrals";
    for (size_t i = 0; i < keys.size(); i++) {
      std::string single;
      const bool found = s.store->Get(keys[i], &single);
      if (found) {
        ASSERT_EQ(results[i].status, GetResult::kFound) << "key " << keys[i];
        EXPECT_EQ(results[i].value, single) << "key " << keys[i];
      } else {
        ASSERT_EQ(results[i].status, GetResult::kAbsent) << "key " << keys[i];
      }
    }
  }
}

TEST_P(MultiGetTest, InFlightWritesDeferThenServePostDrainValue) {
  Store s(GetParam(), /*cores=*/1);
  s.store->Put(1, "old-one");
  s.store->Put(2, "two");
  s.store->Put(3, "three");

  // Stage (l-persist) a write on key 1 without draining it.
  const core::WriteOp put{1, "new-one", 7, false};
  FlatStore::OpHandle h;
  core::OpStatus st;
  ASSERT_EQ(s.store->BeginWriteBatch(0, &put, 1, &h, &st), 1u);
  ASSERT_TRUE(s.store->KeyBusy(0, 1));

  uint64_t keys[3] = {1, 2, 3};
  ReadResult results[3];
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 3, results), 2u);
  EXPECT_EQ(results[0].status, GetResult::kDeferred);
  ASSERT_EQ(results[1].status, GetResult::kFound);
  EXPECT_EQ(results[1].value, "two");
  ASSERT_EQ(results[2].status, GetResult::kFound);
  EXPECT_EQ(results[2].value, "three");

  // Complete the write; the retried read must see the new value.
  s.store->Pump(0);
  s.store->Drain(0, SIZE_MAX, nullptr);
  ASSERT_FALSE(s.store->KeyBusy(0, 1));
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 1, results), 1u);
  ASSERT_EQ(results[0].status, GetResult::kFound);
  EXPECT_EQ(results[0].value, "new-one");
}

TEST_P(MultiGetTest, ReusedResultsArrayDoesNotLeakStatuses) {
  Store s(GetParam(), /*cores=*/1);
  s.store->Put(5, "five");
  ReadResult results[2];
  results[0].status = GetResult::kDeferred;  // stale garbage from a prior use
  results[1].status = GetResult::kFound;
  results[1].value = "stale";
  uint64_t keys[2] = {5, 6};  // 6 absent
  EXPECT_EQ(s.store->MultiGetOnCore(0, keys, 2, results), 2u);
  ASSERT_EQ(results[0].status, GetResult::kFound);
  EXPECT_EQ(results[0].value, "five");
  EXPECT_EQ(results[1].status, GetResult::kAbsent);
  EXPECT_TRUE(results[1].value.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MultiGetTest,
    ::testing::Values(core::IndexKind::kHash, core::IndexKind::kMasstree,
                      core::IndexKind::kFastFairVolatile),
    [](const auto& info) -> std::string {
      switch (info.param) {
        case core::IndexKind::kHash: return "Hash";
        case core::IndexKind::kMasstree: return "Masstree";
        case core::IndexKind::kFastFairVolatile: return "FastFair";
      }
      return "Unknown";
    });

// ---- server-level: batches of 16 vs batches of one -------------------------

// read_batch=1 runs the same MultiGet pipeline as read_batch=16; it only
// serves each Get as it is admitted instead of once per burst.

TEST(MultiGetServer, BatchedPathCompletesSameWorkloadAsLegacy) {
  core::ServerResult results[2];
  for (int i = 0; i < 2; i++) {
    pm::PmPool::Options o;
    o.size = 512ull << 20;
    pm::PmPool pool(o);
    core::FlatStoreOptions fo;
    fo.num_cores = 4;
    fo.group_size = 4;
    auto store = FlatStore::Create(&pool, fo);
    core::FlatStoreAdapter adapter(store.get());

    core::ServerConfig cfg;
    cfg.num_conns = 8;
    cfg.ops_per_conn = 2000;
    cfg.read_batch = i == 0 ? 1 : 16;
    cfg.workload.key_space = 4096;
    cfg.workload.value_len = 64;
    cfg.workload.get_ratio = 0.9;
    cfg.workload.delete_ratio = 0.02;
    core::Preload(&adapter, cfg.workload, cfg.workload.key_space);
    results[i] = core::RunServer(&adapter, cfg);
  }
  EXPECT_EQ(results[0].ops, results[1].ops);
  EXPECT_EQ(results[0].latency.count(), results[1].latency.count());
  EXPECT_GT(results[1].mops, 0.0);
}

}  // namespace core_tests
}  // namespace
}  // namespace flatstore
