// Tests of the offline pool checker: clean pools pass, crash images pass,
// GC-churned pools pass, and injected corruptions are detected.

#include <gtest/gtest.h>

#include "core/flatstore.h"
#include "core/fsck.h"
#include "tier/tier.h"
#include "vt/costs.h"

namespace flatstore {
namespace core {
namespace {

FlatStoreOptions Opts() {
  FlatStoreOptions fo;
  fo.num_cores = 2;
  fo.group_size = 2;
  fo.hash_initial_depth = 4;
  fo.gc_live_ratio = 0.9;
  return fo;
}

std::unique_ptr<pm::PmPool> MakePool() {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  o.crash_tracking = true;
  return std::make_unique<pm::PmPool>(o);
}

std::string V(uint64_t k, size_t len = 64) {
  std::string v(len, char('a' + k % 26));
  return v;
}

TEST(Fsck, FreshPoolIsClean) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  for (uint64_t k = 0; k < 2000; k++) store->Put(k, V(k, 40 + k % 400));
  for (uint64_t k = 0; k < 100; k++) store->Delete(k * 7);
  FsckReport r = FsckPool(*pool);
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_GT(r.log_entries, 2000u);
  EXPECT_GT(r.tombstones, 50u);
  EXPECT_GT(r.value_blocks, 100u);  // values > 256 B
  EXPECT_EQ(r.live_keys, store->Size());
}

TEST(Fsck, CrashImageIsClean) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  for (uint64_t k = 0; k < 1000; k++) store->Put(k, V(k));
  pool->SetFlushBudget(100);
  for (uint64_t k = 1000; k < 1200 && !pool->PowerLost(); k++) {
    store->Put(k, V(k));
  }
  store.reset();
  pool->SimulateCrash();
  FsckReport r = FsckPool(*pool);
  EXPECT_TRUE(r.ok) << r.Summary();
}

TEST(Fsck, AfterGcAndCheckpoint) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  for (int round = 0; round < 60; round++) {
    for (uint64_t k = 0; k < 2000; k++) store->Put(k, V(k + round, 120));
    store->RunCleanersOnce();
  }
  store->CheckpointNow();
  FsckReport r = FsckPool(*pool);
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_EQ(r.checkpoint_items, 2000u);
}

TEST(Fsck, DetectsSmashedSuperblock) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(1, "x");
  pool->base()[0] ^= 0xFF;  // corrupt the magic
  FsckReport r = FsckPool(*pool);
  EXPECT_FALSE(r.ok);
}

TEST(Fsck, DetectsCorruptRegistry) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  for (uint64_t k = 0; k < 100; k++) store->Put(k, V(k));
  // Point a registry record at a misaligned offset.
  log::RootArea root(pool.get());
  log::ChunkRecord* regs = root.registry();
  for (uint64_t s = 0; s < log::kRegistrySlots; s++) {
    if (regs[s].chunk_off != 0) {
      regs[s].chunk_off += 8;
      break;
    }
  }
  FsckReport r = FsckPool(*pool);
  EXPECT_FALSE(r.ok);
}

TEST(Fsck, DetectsTornTail) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  for (uint64_t k = 0; k < 100; k++) store->Put(k, V(k));
  // Forge a tail record pointing outside any registered chunk.
  log::RootArea root(pool.get());
  root.WriteTail(0, /*seq=*/1 << 20, /*tail=*/pool->size() - 64);
  FsckReport r = FsckPool(*pool);
  EXPECT_FALSE(r.ok);
}

TEST(Fsck, CountsTxnCommits) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  for (uint64_t k = 0; k < 50; k++) store->Put(k, V(k));
  FlatStore::Txn txn(store.get());
  uint64_t k1 = 100;
  uint64_t k2 = k1 + 1;
  while (store->CoreForKey(k2) != store->CoreForKey(k1)) k2++;
  txn.Put(k1, "txn-a").Put(k2, "txn-b");
  ASSERT_EQ(txn.Commit(), TxnStatus::kCommitted);
  FsckReport r = FsckPool(*pool);
  EXPECT_TRUE(r.ok) << r.Summary();
  EXPECT_EQ(r.txn_commits, 1u);
  EXPECT_EQ(r.orphan_chains, 0u);
  EXPECT_EQ(r.live_keys, store->Size());
}

// A txn chain whose commit record never made it (forged directly into
// the log, as a torn fused persist would leave it): fsck must warn and
// count the orphan, and recovery must drop the members as never
// committed.
TEST(Fsck, FlagsOrphanTxnChains) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  for (uint64_t k = 0; k < 50; k++) store->Put(k, V(k));

  uint8_t e1[log::kMaxEntrySize];
  uint8_t e2[log::kMaxEntrySize];
  const std::string v = "orphaned-member";
  const uint32_t l1 = log::EncodePutValue(
      e1, 7001, 1, v.data(), static_cast<uint32_t>(v.size()));
  const uint32_t l2 = log::EncodePutValue(
      e2, 7002, 1, v.data(), static_cast<uint32_t>(v.size()));
  log::MarkTxnMember(e1);
  log::MarkTxnMember(e2);
  log::OpLog::EntryRef refs[2] = {{e1, l1}, {e2, l2}};
  uint64_t offs[2];
  ASSERT_TRUE(store->LogForCore(0)->AppendBatch(refs, 2, offs));

  FsckReport r = FsckPool(*pool);
  EXPECT_TRUE(r.ok) << r.Summary();  // a warning, not corruption
  EXPECT_EQ(r.orphan_chains, 1u);
  EXPECT_EQ(r.orphan_entries, 2u);
  bool mentioned = false;
  for (const auto& issue : r.issues) {
    if (issue.what.find("without a valid commit") != std::string::npos) {
      mentioned = true;
    }
  }
  EXPECT_TRUE(mentioned) << r.Summary();

  // Crash recovery drops the chain: the forged keys never surface.
  store.reset();  // no Shutdown: Open replays the logs
  auto rec = FlatStore::Open(pool.get(), Opts());
  std::string got;
  EXPECT_FALSE(rec->Get(7001, &got));
  EXPECT_FALSE(rec->Get(7002, &got));
  ASSERT_TRUE(rec->Get(10, &got));  // unrelated data intact
  EXPECT_EQ(got, V(10));
}

// A tier node whose fixed fields are damaged (here a home socket no lane
// set can hold) must fail the check, not be walked as a valid node.
TEST(Fsck, DetectsCorruptTierNode) {
  auto pool = MakePool();
  FlatStoreOptions fo = Opts();
  fo.tier_enabled = true;
  auto store = FlatStore::Create(pool.get(), fo);
  for (uint64_t k = 0; k < 300; k++) store->Put(k, V(k));
  store->SealActiveLogChunks();
  for (uint64_t k = 300; k < 308; k++) store->Put(k, V(k));
  ASSERT_GT(store->RunTieringOnce(), 0u);
  FsckReport clean = FsckPool(*pool);
  ASSERT_TRUE(clean.ok) << clean.Summary();
  ASSERT_GT(clean.tier_nodes, 0u);

  const auto* root = pool->PtrAt<tier::TierRoot>(
      store->tier()->root_off() + alloc::kChunkHeaderSize +
      sizeof(tier::ArenaHeader));
  auto* node = pool->PtrAt<tier::TierNode>(root->head0);
  node->home_socket = vt::kMaxSockets + 3;
  FsckReport r = FsckPool(*pool);
  EXPECT_FALSE(r.ok);
  bool flagged = false;
  for (const auto& issue : r.issues) {
    if (issue.fatal && issue.what.find("is corrupt") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << r.Summary();
}

TEST(Fsck, SummaryMentionsCounts) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), Opts());
  store->Put(1, "x");
  FsckReport r = FsckPool(*pool);
  std::string s = r.Summary();
  EXPECT_NE(s.find("OK"), std::string::npos);
  EXPECT_NE(s.find("log chunks"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace flatstore
