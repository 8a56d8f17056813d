// Batched write pipeline tests.
//
//  * Index contract: PrefetchInsert + InsertWithHint must agree with
//    Upsert on every index — existed-return, old_value, final contents —
//    including a default (invalid) hint, which takes the base-class
//    fallback, and hints made stale by splits/resizes between phases.
//  * Engine: MultiPutOnCore must leave the store in the same state as
//    the equivalent sequence of single Put/Delete calls (overwrites,
//    deletes-in-batch, duplicate keys resolving last-write-wins), stage
//    the whole batch as one fused HB group, and spend strictly fewer
//    fences than the per-op path. Batches of one, write batches and txns
//    must agree key-for-key on index version and value, before and
//    after a crash (one admission pipeline).
//  * Server: fused batches of 16 must complete the identical workload as
//    batches of one (write_batch=1, each op staged as it is admitted —
//    the same pipeline, submitted per request).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
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

class TwoPhaseInsertTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  std::unique_ptr<index::KvIndex> Make() {
    return GetParam().make(index::PmContext{});
  }
};

// Mirror the same op stream through Upsert on one index and through
// PrefetchInsert + InsertWithHint on another: existed-returns, old
// values, and the final contents must be identical.
TEST_P(TwoPhaseInsertTest, AgreesWithUpsert) {
  auto plain = Make();
  auto hinted = Make();
  // Mixed fresh inserts and overwrites (every third key written twice).
  for (uint64_t round = 0; round < 2; round++) {
    for (uint64_t k = 0; k < 600; k++) {
      if (round == 1 && k % 3 != 0) continue;
      const uint64_t v = k * 10 + round;
      uint64_t old_p = 0, old_h = 0;
      const bool existed_p = plain->Upsert(k, v, &old_p);
      index::LookupHint hint;
      hinted->PrefetchInsert(k, &hint);
      const bool existed_h = hinted->InsertWithHint(k, v, &old_h, hint);
      ASSERT_EQ(existed_h, existed_p) << "key " << k << " round " << round;
      if (existed_p) {
        EXPECT_EQ(old_h, old_p) << "key " << k;
      }
    }
  }
  for (uint64_t k = 0; k < 600; k++) {
    uint64_t vp = 0, vh = 0;
    ASSERT_EQ(plain->Get(k, &vp), hinted->Get(k, &vh)) << "key " << k;
    EXPECT_EQ(vh, vp) << "key " << k;
  }
}

TEST_P(TwoPhaseInsertTest, DefaultHintFallsBackToUpsert) {
  auto idx = Make();
  idx->Insert(7, 77);
  index::LookupHint hint;  // valid=false: never prefetched
  uint64_t old_v = 0;
  ASSERT_TRUE(idx->InsertWithHint(7, 700, &old_v, hint));
  EXPECT_EQ(old_v, 77u);
  EXPECT_FALSE(idx->InsertWithHint(8, 80, &old_v, hint));
  uint64_t v = 0;
  ASSERT_TRUE(idx->Get(7, &v));
  EXPECT_EQ(v, 700u);
  ASSERT_TRUE(idx->Get(8, &v));
  EXPECT_EQ(v, 80u);
}

// Hints taken before heavy insertion must still place writes correctly
// after the structure reshaped itself (CCEH splits, Level-Hashing
// resizes, tree leaves split) — by revalidating and falling back, never
// by writing into a stale bucket/leaf.
TEST_P(TwoPhaseInsertTest, SurvivesStructuralChangesBetweenPhases) {
  auto idx = Make();
  constexpr uint64_t kPinned = 64;
  for (uint64_t k = 0; k < kPinned; k++) idx->Insert(k, k + 500);

  // Hints for existing keys (overwrite targets) and absent keys (fresh
  // inserts), both taken before the growth phase.
  index::LookupHint over_hints[kPinned];
  index::LookupHint fresh_hints[kPinned];
  for (uint64_t k = 0; k < kPinned; k++) {
    idx->PrefetchInsert(k, &over_hints[k]);
    idx->PrefetchInsert(100000 + k, &fresh_hints[k]);
  }

  // Grow the index well past several split/resize thresholds.
  for (uint64_t k = 1000; k < 9000; k++) idx->Insert(k, k);

  for (uint64_t k = 0; k < kPinned; k++) {
    uint64_t old_v = 0;
    ASSERT_TRUE(idx->InsertWithHint(k, k + 900, &old_v, over_hints[k]))
        << "key " << k;
    EXPECT_EQ(old_v, k + 500) << "key " << k;
    ASSERT_FALSE(
        idx->InsertWithHint(100000 + k, k + 7, &old_v, fresh_hints[k]))
        << "key " << 100000 + k;
  }
  for (uint64_t k = 0; k < kPinned; k++) {
    uint64_t v = 0;
    ASSERT_TRUE(idx->Get(k, &v)) << "key " << k;
    EXPECT_EQ(v, k + 900) << "key " << k;
    ASSERT_TRUE(idx->Get(100000 + k, &v)) << "key " << 100000 + k;
    EXPECT_EQ(v, k + 7) << "key " << 100000 + k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, TwoPhaseInsertTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

// ---- engine-level MultiPutOnCore -------------------------------------------

namespace core_tests {

using core::FlatStore;
using core::OpStatus;
using core::WriteOp;

struct Store {
  explicit Store(core::IndexKind kind, int cores = 1) {
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

class MultiPutTest : public ::testing::TestWithParam<core::IndexKind> {};

std::string ValueFor(uint64_t key, uint64_t salt = 0) {
  // Mix inline (<= 256 B) and out-of-log block values.
  const size_t len =
      (key % 3 == 0) ? 1024 + (key + salt) % 100 : 16 + (key + salt) % 200;
  return std::string(len, static_cast<char>('a' + (key + salt) % 26));
}

// One mixed batch against a store that applies the same ops as single
// synchronous calls: final contents and per-op statuses must match.
TEST_P(MultiPutTest, BatchMatchesSequenceOfSingles) {
  Store batched(GetParam());
  Store single(GetParam());
  // Pre-populate both stores so the batch sees overwrites and live
  // delete targets.
  for (uint64_t k = 0; k < 40; k++) {
    batched.store->Put(k, ValueFor(k));
    single.store->Put(k, ValueFor(k));
  }

  // The batch: fresh inserts, overwrites, deletes of present and absent
  // keys, inline and out-of-log values.
  std::vector<std::string> vals;
  vals.reserve(core::kMaxWriteBatch);
  std::vector<WriteOp> ops;
  for (uint64_t k = 100; k < 110; k++) {  // fresh
    vals.push_back(ValueFor(k, 1));
    ops.push_back({k, vals.back().data(),
                   static_cast<uint32_t>(vals.back().size()), false});
  }
  for (uint64_t k = 0; k < 10; k++) {  // overwrite
    vals.push_back(ValueFor(k, 2));
    ops.push_back({k, vals.back().data(),
                   static_cast<uint32_t>(vals.back().size()), false});
  }
  for (uint64_t k = 20; k < 25; k++) {  // delete present
    ops.push_back({k, nullptr, 0, true});
  }
  ops.push_back({999, nullptr, 0, true});  // delete absent

  std::vector<OpStatus> statuses(ops.size());
  const size_t applied = batched.store->MultiPutOnCore(
      0, ops.data(), ops.size(), statuses.data());
  EXPECT_EQ(applied, ops.size() - 1) << "only the absent delete skips";

  for (size_t i = 0; i < ops.size(); i++) {
    const WriteOp& op = ops[i];
    if (op.tombstone) {
      const bool existed = single.store->Delete(op.key);
      EXPECT_EQ(statuses[i],
                existed ? OpStatus::kOk : OpStatus::kNotFound)
          << "op " << i;
    } else {
      single.store->Put(
          op.key,
          std::string_view(static_cast<const char*>(op.value), op.len));
      EXPECT_EQ(statuses[i], OpStatus::kOk) << "op " << i;
    }
  }

  for (uint64_t k = 0; k < 1000; k++) {
    std::string vb, vs;
    const bool fb = batched.store->Get(k, &vb);
    const bool fs = single.store->Get(k, &vs);
    ASSERT_EQ(fb, fs) << "key " << k;
    if (fb) {
      EXPECT_EQ(vb, vs) << "key " << k;
    }
  }
}

// Duplicate keys within one batch chain versions newest-first and
// resolve last-write-wins; put-then-delete ends absent; delete-then-put
// ends present.
TEST_P(MultiPutTest, DuplicateKeysResolveInBatchOrder) {
  Store s(GetParam());
  s.store->Put(1, "one-old");
  s.store->Put(2, "two-old");

  const std::string a = "first", b = "second", c = "third";
  WriteOp ops[7];
  ops[0] = {1, a.data(), static_cast<uint32_t>(a.size()), false};
  ops[1] = {1, b.data(), static_cast<uint32_t>(b.size()), false};
  ops[2] = {1, c.data(), static_cast<uint32_t>(c.size()), false};  // LWW
  ops[3] = {2, a.data(), static_cast<uint32_t>(a.size()), false};
  ops[4] = {2, nullptr, 0, true};  // put-then-delete: ends absent
  ops[5] = {3, nullptr, 0, true};  // delete absent
  ops[6] = {3, b.data(), static_cast<uint32_t>(b.size()), false};

  OpStatus statuses[7];
  const size_t applied = s.store->MultiPutOnCore(0, ops, 7, statuses);
  EXPECT_EQ(applied, 6u);
  EXPECT_EQ(statuses[4], OpStatus::kOk) << "delete of key written earlier "
                                           "in the batch chains onto it";
  EXPECT_EQ(statuses[5], OpStatus::kNotFound);

  std::string v;
  ASSERT_TRUE(s.store->Get(1, &v));
  EXPECT_EQ(v, "third");
  EXPECT_FALSE(s.store->Get(2, &v));
  ASSERT_TRUE(s.store->Get(3, &v));
  EXPECT_EQ(v, "second");
}

// The whole point: one batch = one fused group = one log reservation =
// one persist sweep. Check the stat counters and that a 32-op batch
// spends strictly fewer fences than 32 single synchronous puts.
TEST_P(MultiPutTest, FusedBatchSpendsFewerFencesThanSingles) {
  Store s(GetParam());
  std::vector<std::string> vals;
  WriteOp ops[core::kMaxWriteBatch];
  vals.reserve(core::kMaxWriteBatch);
  for (uint64_t k = 0; k < core::kMaxWriteBatch; k++) {
    vals.push_back(std::string(64, static_cast<char>('a' + k % 26)));
    ops[k] = {5000 + k, vals.back().data(),
              static_cast<uint32_t>(vals.back().size()), false};
  }

  // Warm the serving log chunk so neither window pays the one-time
  // chunk-allocation fences.
  s.store->Put(4999, vals[0]);

  const uint64_t groups0 = s.store->hb()->fused_groups();
  pm::PmStats::Snapshot b0 = s.pool->stats().Get();
  OpStatus statuses[core::kMaxWriteBatch];
  ASSERT_EQ(s.store->MultiPutOnCore(0, ops, core::kMaxWriteBatch, statuses),
            core::kMaxWriteBatch);
  pm::PmStats::Snapshot b1 = s.pool->stats().Get();

  EXPECT_EQ(s.store->hb()->fused_groups(), groups0 + 1)
      << "whole batch staged as one fused group";
  EXPECT_GE(s.store->hb()->fused_entries(), core::kMaxWriteBatch);

  for (uint64_t k = 0; k < core::kMaxWriteBatch; k++) {
    s.store->Put(6000 + k, vals[k]);
  }
  pm::PmStats::Snapshot b2 = s.pool->stats().Get();

  const uint64_t batch_fences = pm::Delta(b0, b1).fences;
  const uint64_t single_fences = pm::Delta(b1, b2).fences;
  EXPECT_LT(batch_fences, single_fences)
      << "fused batch: " << batch_fences << " fences vs "
      << single_fences << " for the same ops one-by-one";
  // All values are inline: the batch is one AppendBatch (two fences).
  EXPECT_LE(batch_fences, 2u + 1u);
}

// One seeded op sequence through the three admission routes — batches of
// one, write batches of 8, txns of 8 — must leave identical stores: the
// same index version (log::UnpackVersion) and value for every key, live
// and after a crash + recovery. The routes share one version/encode path,
// so any divergence is a bug in it.
TEST_P(MultiPutTest, AdmissionRoutesAgreeOnVersionsAndValues) {
  constexpr size_t kGroup = 8;
  constexpr size_t kOps = 480;  // 60 groups
  constexpr uint64_t kKeys = 24;  // small: groups repeat keys
  constexpr uint64_t kAbsent = 1000;  // never written: delete targets

  // The sequence: puts (inline and out-of-log) and deletes over a small
  // key space, plus deletes of never-written keys. A second delete of a
  // key already deleted earlier in the same group is left out: grouped,
  // it stages a redundant tombstone (its ack must wait until the first
  // delete is durable); one by one, it finds the key absent.
  Rng rng(0xAD317);
  std::vector<std::string> vals;
  vals.reserve(kOps);
  std::vector<WriteOp> ops;
  struct Coverage {
    int inline_puts = 0, block_puts = 0, overwrites = 0, deletes = 0,
        absent_deletes = 0, reputs = 0, group_dups = 0;
  } cov;
  std::vector<int> state(kKeys, 0);  // 0 never written, 1 live, 2 deleted
  std::vector<char> last_in_group(kKeys, 0);
  for (size_t i = 0; i < kOps; i++) {
    if (i % kGroup == 0) {
      std::fill(last_in_group.begin(), last_in_group.end(), 0);
    }
    if (rng.Uniform(12) == 0) {
      ops.push_back({kAbsent + rng.Uniform(4), nullptr, 0, true});
      cov.absent_deletes++;
      continue;
    }
    const uint64_t k = rng.Uniform(kKeys);
    if (last_in_group[k] != 0) cov.group_dups++;
    if (rng.Uniform(4) == 0 && last_in_group[k] != 'D') {
      ops.push_back({k, nullptr, 0, true});
      if (state[k] == 1) cov.deletes++;
      if (state[k] != 1) cov.absent_deletes++;
      state[k] = state[k] == 0 ? 0 : 2;
      last_in_group[k] = 'D';
      continue;
    }
    const bool block = rng.Uniform(3) == 0;
    const size_t len =
        block ? 300 + rng.Uniform(1200) : 1 + rng.Uniform(256);
    vals.push_back(std::string(len, static_cast<char>('a' + i % 26)));
    ops.push_back({k, vals.back().data(), static_cast<uint32_t>(len), false});
    (block ? cov.block_puts : cov.inline_puts)++;
    if (state[k] == 1) cov.overwrites++;
    if (state[k] == 2) cov.reputs++;
    state[k] = 1;
    last_in_group[k] = 'P';
  }
  ASSERT_GT(cov.inline_puts, 0);
  ASSERT_GT(cov.block_puts, 0);
  ASSERT_GT(cov.overwrites, 0);
  ASSERT_GT(cov.deletes, 0);
  ASSERT_GT(cov.absent_deletes, 0);
  ASSERT_GT(cov.reputs, 0);
  ASSERT_GT(cov.group_dups, 0);

  struct Route {
    std::unique_ptr<pm::PmPool> pool;
    std::unique_ptr<FlatStore> store;
  };
  core::FlatStoreOptions fo;
  fo.num_cores = 1;
  fo.group_size = 1;
  fo.index = GetParam();
  fo.hash_initial_depth = 4;
  Route routes[3];
  for (Route& r : routes) {
    pm::PmPool::Options o;
    o.size = 256ull << 20;
    o.crash_tracking = true;
    r.pool = std::make_unique<pm::PmPool>(o);
    r.store = FlatStore::Create(r.pool.get(), fo);
  }

  // Route 0: batches of one. Route 1: write batches of 8. Route 2: txns
  // of 8 (put/delete only).
  OpStatus statuses[kGroup];
  for (size_t i = 0; i < kOps; i++) {
    routes[0].store->MultiPutOnCore(0, &ops[i], 1, statuses);
  }
  for (size_t i = 0; i < kOps; i += kGroup) {
    routes[1].store->MultiPutOnCore(0, &ops[i], kGroup, statuses);
    core::TxnOp txn[kGroup];
    for (size_t j = 0; j < kGroup; j++) {
      const WriteOp& w = ops[i + j];
      txn[j].kind = w.tombstone ? core::TxnOpKind::kDelete
                                : core::TxnOpKind::kPut;
      txn[j].key = w.key;
      txn[j].value = w.value;
      txn[j].len = w.len;
    }
    ASSERT_EQ(routes[2].store->CommitTxnOnCore(0, txn, kGroup),
              core::TxnStatus::kCommitted);
  }

  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < kKeys; k++) keys.push_back(k);
  for (uint64_t k = kAbsent; k < kAbsent + 4; k++) keys.push_back(k);
  auto expect_same = [&](const char* when) {
    for (const uint64_t k : keys) {
      uint64_t packed[3] = {};
      bool indexed[3];
      std::string value[3];
      bool found[3];
      for (int r = 0; r < 3; r++) {
        indexed[r] = routes[r].store->IndexForCore(0)->Get(k, &packed[r]);
        found[r] = routes[r].store->Get(k, &value[r]);
      }
      for (int r = 1; r < 3; r++) {
        SCOPED_TRACE(testing::Message()
                     << when << " key " << k << " route " << r);
        ASSERT_EQ(indexed[r], indexed[0]);
        EXPECT_EQ(log::UnpackVersion(packed[r]),
                  log::UnpackVersion(packed[0]));
        ASSERT_EQ(found[r], found[0]);
        EXPECT_EQ(value[r], value[0]);
      }
    }
  };
  expect_same("live");
  for (Route& r : routes) {
    r.store.reset();  // no Shutdown: Open must replay the log
    r.pool->SimulateCrash();
    r.store = FlatStore::Open(r.pool.get(), fo);
  }
  expect_same("recovered");
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MultiPutTest,
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

// write_batch=1 runs the same admission pipeline as write_batch=16; it
// only submits each op as it is admitted instead of once per burst.

TEST(MultiPutServer, BatchedPathCompletesSameWorkloadAsLegacy) {
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
    cfg.write_batch = i == 0 ? 1 : 16;
    cfg.workload.key_space = 4096;
    cfg.workload.value_len = 64;
    cfg.workload.get_ratio = 0.3;  // write-heavy
    cfg.workload.delete_ratio = 0.05;
    core::Preload(&adapter, cfg.workload, cfg.workload.key_space);
    results[i] = core::RunServer(&adapter, cfg);
    if (i == 1) {
      EXPECT_GT(store->hb()->fused_groups(), 0u)
          << "batched run must actually take the fused path";
    }
  }
  EXPECT_EQ(results[0].ops, results[1].ops);
  EXPECT_EQ(results[0].latency.count(), results[1].latency.count());
  EXPECT_GT(results[1].mops, 0.0);
}

}  // namespace core_tests
}  // namespace
}  // namespace flatstore
