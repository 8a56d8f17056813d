// Persistent ordered tier (DESIGN.md §11): log-to-tier conversion,
// merged hash-store scans, scan equivalence against the full-iteration
// baseline under puts/deletes/GC churn, tombstone handling, incremental
// (bounded) recovery that skips tiered chunks, the DRAM lanes and segment
// counts InsertBatch maintains, the counted-segment tier gather plus
// batched read wave behind every scan, and the tier/delta invariant that
// lets a scan serve tiered keys without an index probe (§11.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/fsck.h"
#include "core/flatstore.h"
#include "tier/tier.h"
#include "vt/clock.h"

namespace flatstore {
namespace core {
namespace {

using ScanRows = std::vector<std::pair<uint64_t, std::string>>;

std::string ValueFor(uint64_t key, uint64_t nonce, size_t len) {
  std::string v(len, static_cast<char>('a' + (key + nonce) % 26));
  std::memcpy(&v[0], &key, std::min<size_t>(8, len));
  return v;
}

FlatStoreOptions TierOptions(int cores = 2) {
  FlatStoreOptions fo;
  fo.num_cores = cores;
  fo.group_size = cores;
  fo.hash_initial_depth = 4;
  fo.tier_enabled = true;
  return fo;
}

std::unique_ptr<pm::PmPool> MakePool(uint64_t mb = 128) {
  pm::PmPool::Options o;
  o.size = mb << 20;
  return std::make_unique<pm::PmPool>(o);
}

TEST(Tier, ConvertAndServe) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), TierOptions());
  for (uint64_t k = 0; k < 512; k++) {
    store->Put(k, ValueFor(k, 1, 40));
  }
  store->SealActiveLogChunks();
  // Advance each core's durable tail into a fresh chunk: the tail chunk
  // itself never tiers (recovery's tail record must stay replayable).
  for (uint64_t k = 512; k < 520; k++) {
    store->Put(k, ValueFor(k, 1, 40));
  }
  EXPECT_GT(store->RunTieringOnce(), 0u);
  EXPECT_GT(store->ChunksTiered(), 0u);
  ASSERT_NE(store->tier(), nullptr);
  EXPECT_GT(store->tier()->node_count(), 0u);
  // Point reads still come through the volatile index.
  for (uint64_t k = 0; k < 512; k += 13) {
    std::string v;
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, 1, 40));
  }
  // Range scan over the merged path: ordered, complete, correct bytes.
  ScanRows rows;
  EXPECT_EQ(store->Scan(100, 50, &rows), 50u);
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i].first, 100 + i);
    EXPECT_EQ(rows[i].second, ValueFor(100 + i, 1, 40));
  }
}

TEST(Tier, SupersededEntriesNeverResurface) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), TierOptions());
  for (uint64_t k = 0; k < 256; k++) {
    store->Put(k, ValueFor(k, 1, 60));
  }
  store->SealActiveLogChunks();
  // Supersede half the keys and delete a few AFTER sealing: the tier
  // conversion must keep only entries the index still points at.
  for (uint64_t k = 0; k < 256; k += 2) {
    store->Put(k, ValueFor(k, 2, 72));
  }
  for (uint64_t k = 1; k < 32; k += 2) {
    ASSERT_TRUE(store->Delete(k));
  }
  EXPECT_GT(store->RunTieringOnce(), 0u);
  ScanRows rows;
  store->Scan(0, 256, &rows);
  for (const auto& [k, v] : rows) {
    if (k % 2 == 0) {
      EXPECT_EQ(v, ValueFor(k, 2, 72)) << k;
    } else {
      EXPECT_GE(k, 32u) << "deleted key resurfaced in scan";
      EXPECT_EQ(v, ValueFor(k, 1, 60)) << k;
    }
  }
}

// The acceptance check: the merged volatile+tier scan must be
// byte-identical to the full volatile-index iteration at every quiesced
// point of a put/delete/GC/tiering churn schedule.
TEST(Tier, ScanEquivalentToFullIterationUnderChurn) {
  auto pool = MakePool(256);
  auto opts = TierOptions();
  opts.gc_live_ratio = 0.9;
  auto store = FlatStore::Create(pool.get(), opts);
  constexpr uint64_t kKeys = 1500;
  for (uint64_t k = 0; k < kKeys; k++) {
    store->Put(k, ValueFor(k, 0, 50));
  }
  auto compare = [&](uint64_t start, uint64_t count) {
    ScanRows merged, full;
    const uint64_t a = store->Scan(start, count, &merged);
    const uint64_t b = store->ScanFullIteration(start, count, &full);
    ASSERT_EQ(a, b) << "start=" << start << " count=" << count;
    ASSERT_EQ(merged, full) << "start=" << start << " count=" << count;
  };
  auto invariant = [&](const char* step, int round) {
    EXPECT_EQ(store->DebugCheckTierDelta(), std::nullopt)
        << "after " << step << ", round " << round;
  };
  invariant("preload", 0);
  for (int round = 1; round <= 4; round++) {
    // Churn: overwrites, deletes, re-puts — then GC and tiering passes.
    for (uint64_t k = 0; k < kKeys; k += 3) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 50 + round));
    }
    invariant("overwrites", round);
    for (uint64_t k = 1; k < kKeys; k += 97) store->Delete(k);
    invariant("deletes", round);
    for (uint64_t k = 1; k < kKeys; k += 194) {
      store->Put(k, ValueFor(k, static_cast<uint64_t>(round), 33));
    }
    invariant("re-puts", round);
    store->SealActiveLogChunks();
    store->RunCleanersOnce();
    invariant("cleaning", round);
    store->RunTieringOnce();
    invariant("tiering", round);
    compare(0, kKeys);
    compare(kKeys / 3, 100);
    compare(kKeys - 40, 200);  // tail: fewer than `count` keys remain
    compare(kKeys + 1000, 10);  // empty range
  }
  EXPECT_GT(store->ChunksTiered(), 0u);
}

// A 48-byte value carrying its key and a per-key write nonce.
std::string StampedValue(uint64_t key, uint64_t nonce) {
  std::string v(48, static_cast<char>('a' + key % 26));
  std::memcpy(&v[0], &key, 8);
  std::memcpy(&v[8], &nonce, 8);
  return v;
}

// Freshness under the three racing actors the tier/delta invariant
// orders: a writer, a tiering pass and a scanner. A row served from a
// tier node must never be older than a write acknowledged before the
// scan began. An unconditional tiering erase or a Gather ahead of the
// delta snapshot breaks this within a few runs; a misordered Drain
// would too, but its window (one index insert) is too short for this
// race to hit reliably.
TEST(Tier, ScansNeverServeOlderThanAcked) {
  auto pool = MakePool(256);
  FlatStoreOptions fo = TierOptions();
  // Overwrites leave few live entries per sealed chunk; tier them anyway
  // so conversions keep racing the writer.
  fo.tier_min_live_ratio = 0.01;
  auto store = FlatStore::Create(pool.get(), fo);
  constexpr uint64_t kKeys = 512;
  std::vector<std::atomic<uint64_t>> acked(kKeys);
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, StampedValue(k, 0));
  // The writer's first puts move the durable tails past this chunk.
  store->SealActiveLogChunks();

  // Every seal strands a chunk per core that tiers and is never freed,
  // so the writer runs a fixed number of seal cycles.
  constexpr int kSeals = 20;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::mt19937_64 rng(3);
    uint64_t nonce = 0;
    for (int seal = 0; seal < kSeals; seal++) {
      for (int round = 0; round < 8; round++) {
        nonce++;
        for (int i = 0; i < 64; i++) {
          const uint64_t k = rng() % kKeys;
          store->Put(k, StampedValue(k, nonce));
          // Acknowledged: every scan that starts from here on must see it.
          acked[k].store(nonce, std::memory_order_release);
        }
      }
      store->SealActiveLogChunks();
    }
    done.store(true, std::memory_order_release);
  });
  std::thread tierer([&] {
    while (!done.load(std::memory_order_acquire)) store->RunTieringOnce();
    store->RunTieringOnce();
  });

  // The scanner runs in a lambda so a failed assertion still reaches the
  // joins below.
  auto scanner = [&] {
    std::mt19937_64 rng(9);
    std::vector<uint64_t> floor(kKeys);
    int scans = 0;
    while (!done.load(std::memory_order_acquire) || scans < 200) {
      scans++;
      const uint64_t start = rng() % kKeys;
      const uint64_t len = 1 + rng() % 100;
      for (uint64_t k = start; k < std::min(kKeys, start + len); k++) {
        floor[k] = acked[k].load(std::memory_order_acquire);
      }
      ScanRows rows;
      store->Scan(start, len, &rows);
      // No key is ever deleted, so the window is exactly [start, start+len).
      ASSERT_EQ(rows.size(), std::min(len, kKeys - start)) << start;
      for (size_t j = 0; j < rows.size(); j++) {
        const uint64_t k = rows[j].first;
        ASSERT_EQ(k, start + j);
        ASSERT_EQ(rows[j].second.size(), 48u) << k;
        uint64_t key = 0, nonce = 0;
        std::memcpy(&key, rows[j].second.data(), 8);
        std::memcpy(&nonce, rows[j].second.data() + 8, 8);
        ASSERT_EQ(key, k);
        ASSERT_GE(nonce, floor[k])
            << "key " << k << " served a write older than one acknowledged"
            << " before the scan began";
      }
    }
  };
  scanner();
  writer.join();
  tierer.join();
  EXPECT_GT(store->ChunksTiered(), 1u);
  EXPECT_EQ(store->DebugCheckTierDelta(), std::nullopt);
}

TEST(Tier, RecoverySkipsTieredChunksAndKeepsData) {
  auto pool = MakePool();
  {
    auto store = FlatStore::Create(pool.get(), TierOptions());
    for (uint64_t k = 0; k < 600; k++) {
      store->Put(k, ValueFor(k, 3, 44));
    }
    store->SealActiveLogChunks();
    for (uint64_t k = 0; k < 64; k++) {
      store->Put(k, ValueFor(k, 4, 52));  // un-tiered suffix
    }
    ASSERT_GT(store->RunTieringOnce(), 0u);
    // No Shutdown(): simulate a crash so Open takes the replay path.
  }
  core::FsckReport rep = core::FsckPool(*pool);
  EXPECT_TRUE(rep.ok) << rep.Summary();
  EXPECT_GT(rep.tiered_chunks, 0u);
  EXPECT_GT(rep.tier_nodes, 0u);
  auto store = FlatStore::Open(pool.get(), TierOptions());
  EXPECT_EQ(store->DebugCheckTierDelta(), std::nullopt);
  const auto& rs = store->recovery_stats();
  EXPECT_GT(rs.tier_nodes_loaded, 0u);
  EXPECT_GT(rs.chunks_skipped_tiered, 0u);
  for (uint64_t k = 0; k < 600; k++) {
    std::string v;
    ASSERT_TRUE(store->Get(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k, k < 64 ? 4 : 3, k < 64 ? 52 : 44)) << k;
  }
  // The merged scan works right after recovery (delta sets rebuilt).
  ScanRows rows, full;
  ASSERT_EQ(store->Scan(0, 600, &rows),
            store->ScanFullIteration(0, 600, &full));
  EXPECT_EQ(rows, full);
}

TEST(Tier, TieredTombstoneStaysDeadAcrossReopen) {
  auto pool = MakePool();
  {
    auto store = FlatStore::Create(pool.get(), TierOptions());
    for (uint64_t k = 0; k < 128; k++) {
      store->Put(k, ValueFor(k, 5, 40));
    }
    ASSERT_TRUE(store->Delete(7));
    ASSERT_TRUE(store->Delete(11));
    store->SealActiveLogChunks();
    for (uint64_t k = 200; k < 208; k++) {
      store->Put(k, ValueFor(k, 5, 40));  // advance tails past the seal
    }
    ASSERT_GT(store->RunTieringOnce(), 0u);
    std::string v;
    EXPECT_FALSE(store->Get(7, &v));
  }
  auto store = FlatStore::Open(pool.get(), TierOptions());
  std::string v;
  EXPECT_FALSE(store->Get(7, &v));
  EXPECT_FALSE(store->Get(11, &v));
  ASSERT_TRUE(store->Get(8, &v));
  EXPECT_EQ(v, ValueFor(8, 5, 40));
  ScanRows rows;
  store->Scan(0, 128, &rows);
  for (const auto& [k, val] : rows) {
    EXPECT_NE(k, 7u);
    EXPECT_NE(k, 11u);
  }
}

// FlatStore-M with the tier: the ordered index serves every scan, so the
// store keeps no delta sets, yet the tier still converts chunks and every
// open loads it. Scan must equal the full-iteration baseline, and both
// must equal a model of the acknowledged writes, at every step: puts,
// deletes, a seal, a tiering pass, a crash + Open and a clean reopen.
TEST(Tier, OrderedIndexWithTierScansMatchAcrossCrashAndReopen) {
  pm::PmPool::Options o;
  o.size = 128ull << 20;
  o.crash_tracking = true;
  pm::PmPool pool(o);
  FlatStoreOptions opts = TierOptions();
  opts.index = IndexKind::kMasstree;
  constexpr uint64_t kKeys = 800;
  std::map<uint64_t, std::string> model;
  auto check = [&](FlatStore* store, const char* step) {
    const ScanRows want(model.begin(), model.end());
    const std::pair<uint64_t, uint64_t> ranges[] = {
        {0, kKeys + 10}, {kKeys / 3, 100}, {kKeys - 40, 200}};
    for (const auto& [start, count] : ranges) {
      ScanRows scanned, full;
      const uint64_t a = store->Scan(start, count, &scanned);
      ASSERT_EQ(a, store->ScanFullIteration(start, count, &full))
          << step << ", start=" << start;
      ASSERT_EQ(scanned, full) << step << ", start=" << start;
      if (start == 0) {
        ASSERT_EQ(scanned, want) << step;
      }
    }
  };
  auto put = [&](FlatStore* store, uint64_t k, uint64_t nonce, size_t len) {
    model[k] = ValueFor(k, nonce, len);
    store->Put(k, model[k]);
  };
  {
    auto store = FlatStore::Create(&pool, opts);
    for (uint64_t k = 0; k < kKeys; k++) put(store.get(), k, 1, 40);
    check(store.get(), "puts");
    for (uint64_t k = 0; k < kKeys; k += 7) {
      ASSERT_TRUE(store->Delete(k));
      model.erase(k);
    }
    check(store.get(), "deletes");
    store->SealActiveLogChunks();
    // Supersede a third of the keys (re-putting some deleted ones); this
    // also moves each core's durable tail out of the sealed chunks.
    for (uint64_t k = 0; k < kKeys; k += 3) put(store.get(), k, 2, 56);
    check(store.get(), "seal");
    ASSERT_GT(store->RunTieringOnce(), 0u);
    ASSERT_NE(store->tier(), nullptr);
    check(store.get(), "tiering");
    // No Shutdown(): the store is dropped and the power cut.
  }
  pool.SimulateCrash();
  {
    auto store = FlatStore::Open(&pool, opts);
    EXPECT_GT(store->recovery_stats().chunks_skipped_tiered, 0u);
    EXPECT_GT(store->recovery_stats().tier_nodes_loaded, 0u);
    check(store.get(), "crash + Open");
    store->Shutdown();
  }
  auto store = FlatStore::Open(&pool, opts);
  check(store.get(), "clean reopen");
}

TEST(Tier, RepeatedConversionAcrossReopens) {
  auto pool = MakePool(256);
  for (int gen = 0; gen < 3; gen++) {
    auto store = gen == 0 ? FlatStore::Create(pool.get(), TierOptions())
                          : FlatStore::Open(pool.get(), TierOptions());
    EXPECT_EQ(store->DebugCheckTierDelta(), std::nullopt) << "gen " << gen;
    for (uint64_t k = 0; k < 400; k++) {
      store->Put(k + static_cast<uint64_t>(gen) * 1000,
                 ValueFor(k, static_cast<uint64_t>(gen), 46));
    }
    store->SealActiveLogChunks();
    store->RunTieringOnce();
  }
  auto store = FlatStore::Open(pool.get(), TierOptions());
  EXPECT_EQ(store->DebugCheckTierDelta(), std::nullopt);
  for (int gen = 0; gen < 3; gen++) {
    for (uint64_t k = 0; k < 400; k += 11) {
      std::string v;
      const uint64_t key = k + static_cast<uint64_t>(gen) * 1000;
      ASSERT_TRUE(store->Get(key, &v)) << key;
      EXPECT_EQ(v, ValueFor(k, static_cast<uint64_t>(gen), 46));
    }
  }
  ScanRows rows, full;
  ASSERT_EQ(store->Scan(0, 1200, &rows),
            store->ScanFullIteration(0, 1200, &full));
  EXPECT_EQ(rows, full);
}

// A tier on its own, without an engine: the tier never interprets the
// `packed` words, so the tests below feed it synthetic ones.
// `pool_sockets` > 1 splits the pool into socket spans; allocator core s
// then draws chunks from socket s's span.
struct TierRig {
  explicit TierRig(int sockets, int pool_sockets = 1) {
    constexpr uint64_t kRegion = 64ull << 20;
    pm::PmPool::Options o;
    o.size = kRegion + alloc::kChunkSize;  // chunk 0 stands in for a superblock
    o.num_sockets = pool_sockets;
    pool = std::make_unique<pm::PmPool>(o);
    allocator = std::make_unique<alloc::LazyAllocator>(
        pool.get(), alloc::kChunkSize, kRegion, 2);
    tier = tier::PersistentTier::Create(pool.get(), allocator.get(), sockets,
                                        {0, 1});
    num_sockets = sockets;
  }

  // Inserts `n` distinct random keys over four interleaved batches (so the
  // zipper merge threads new nodes between old ones); returns them sorted.
  std::vector<uint64_t> Fill(size_t n, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> keys;
    while (keys.size() < n) keys.push_back(rng() % (1u << 20));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (int batch = 0; batch < 4; batch++) {
      std::vector<tier::TierEntry> entries;
      for (size_t i = static_cast<size_t>(batch); i < keys.size(); i += 4) {
        entries.push_back({keys[i], keys[i] * 2 + 1,
                           static_cast<int>((keys[i] >> 4) % num_sockets)});
      }
      EXPECT_TRUE(tier->InsertBatch(entries.data(), entries.size()));
    }
    return keys;
  }

  std::vector<uint64_t> All() const {
    std::vector<uint64_t> keys;
    tier->ForEach([&](uint64_t key, uint64_t) { keys.push_back(key); });
    return keys;
  }

  std::unique_ptr<pm::PmPool> pool;
  std::unique_ptr<alloc::LazyAllocator> allocator;
  std::unique_ptr<tier::PersistentTier> tier;
  int num_sockets;
};

// Gather's node reads are its only charged PM reads, so with a clock
// bound the PmStats read delta counts them.
uint64_t ReadsDuring(pm::PmPool* pool, const std::function<void()>& fn) {
  vt::Clock clock;
  vt::ScopedClock bind(&clock);
  const uint64_t before = pool->stats().Get().reads;
  fn();
  return pool->stats().Get().reads - before;
}

// Gather must return exactly what an in-order walk yields from `start`,
// from any start, for any window — and, with current segment counts, read
// exactly the window's keys plus the start segment's nodes below `start`.
// That segment begins at the last node of height >= 2 below `start`, or
// at the L0 head.
TEST(TierGather, MatchesForEachFromAnyStart) {
  for (int sockets : {1, 2}) {
    SCOPED_TRACE(sockets);
    TierRig rig(sockets);
    const std::vector<uint64_t> keys = rig.Fill(3000, 7);
    const std::vector<uint64_t> all = rig.All();
    ASSERT_EQ(all, keys);
    auto check = [&](uint64_t start, size_t want) {
      std::vector<uint64_t> got{42};  // Gather appends
      size_t n = 0;
      const uint64_t read = ReadsDuring(rig.pool.get(), [&] {
        n = rig.tier->Gather(start, want, &got);
      });
      const auto first = std::lower_bound(all.begin(), all.end(), start);
      const size_t avail = static_cast<size_t>(all.end() - first);
      std::vector<uint64_t> expect{42};
      expect.insert(expect.end(), first, first + std::min(want, avail));
      ASSERT_EQ(n, expect.size() - 1) << start << " want=" << want;
      ASSERT_EQ(got, expect) << start << " want=" << want;
      const size_t lo = static_cast<size_t>(first - all.begin());
      size_t seg = lo;  // one past the start segment's head, 0 = L0 head
      while (seg > 0 && tier::NodeHeight(all[seg - 1]) < 2) seg--;
      const size_t below = seg == 0 ? lo : lo - seg + 1;
      ASSERT_EQ(read, below + std::min(want, avail))
          << start << " want=" << want;
    };
    std::mt19937_64 rng(static_cast<uint64_t>(sockets));
    for (size_t want = 1; want <= 200; want++) {
      check(rng() % (all.back() + 100), want);  // between keys
      check(all[rng() % all.size()], want);     // on a key
    }
    check(0, all.size() + 10);  // the whole tier, and then some
    check(all.back(), 50);      // the last key only
    check(all.back() + 1, 50);  // past the last key
    check(UINT64_MAX, 1);
  }
}

TEST(TierGather, EmptyTier) {
  TierRig rig(2);
  std::vector<uint64_t> got;
  const uint64_t read = ReadsDuring(rig.pool.get(), [&] {
    EXPECT_EQ(rig.tier->Gather(0, 10, &got), 0u);
  });
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(read, 0u);
}

// Arena placement: a node is allocated from a chunk of its home socket,
// so on a 2-socket pool its PM offset sits in TierEntry::home_socket's
// span (Fill homes key k on socket (k >> 4) % 2) — also for the nodes a
// reopened tier allocates.
TEST(TierPlacement, NodesLandOnTheirHomeSocket) {
  TierRig rig(2, /*pool_sockets=*/2);
  const auto* root = rig.pool->PtrAt<tier::TierRoot>(
      rig.tier->root_off() + alloc::kChunkHeaderSize +
      sizeof(tier::ArenaHeader));
  auto check = [&] {
    uint64_t per_socket[2] = {0, 0};
    for (uint64_t off = root->head0; off != 0;) {
      const auto* n = rig.pool->PtrAt<tier::TierNode>(off);
      ASSERT_EQ(n->home_socket, (n->key >> 4) % 2) << n->key;
      ASSERT_EQ(rig.pool->SocketOf(off), static_cast<int>(n->home_socket))
          << "node " << n->key << " at " << off;
      per_socket[n->home_socket]++;
      off = n->next;
    }
    EXPECT_EQ(per_socket[0] + per_socket[1], rig.tier->node_count());
    EXPECT_GT(per_socket[0], 0u);
    EXPECT_GT(per_socket[1], 0u);
  };
  rig.Fill(3000, 1);
  check();
  rig.tier = tier::PersistentTier::Open(rig.pool.get(), rig.allocator.get(),
                                        2, {0, 1}, rig.tier->root_off(),
                                        nullptr);
  check();
  rig.Fill(3000, 2);  // new keys thread between the reopened tier's nodes
  check();
}

// The point of the gather: its node reads overlap, so it charges far less
// vt than walking the same nodes one dependent read at a time.
TEST(TierGather, ChargesLessThanASerialWalk) {
  TierRig rig(1);
  const std::vector<uint64_t> all = rig.Fill(4000, 11);
  vt::Clock clock;
  vt::ScopedClock bind(&clock);

  uint64_t t0 = clock.now();
  rig.tier->ForEach([](uint64_t, uint64_t) {});
  const uint64_t serial = clock.now() - t0;
  std::vector<uint64_t> got;
  t0 = clock.now();
  ASSERT_EQ(rig.tier->Gather(0, all.size(), &got), all.size());
  const uint64_t gathered = clock.now() - t0;
  EXPECT_EQ(got, all);
  EXPECT_LT(2 * gathered, serial) << gathered << " vs " << serial;

  // A 100-key window, lane descent and planning included, costs less than
  // 30 dependent node reads: its ~25 segments run as parallel chains.
  got.clear();
  t0 = clock.now();
  ASSERT_EQ(rig.tier->Gather(all[all.size() / 2], 100, &got), 100u);
  EXPECT_LT(clock.now() - t0, 30 * vt::kPmReadLatency);
}

// InsertBatch keeps the DRAM lanes and segment counts current inside its
// merge sweep; after every batch they must equal what Open rebuilds from
// the L0 walk. Batches mix fresh keys (landing before, between and after
// old ones, splitting segments) with in-place updates of tiered keys.
TEST(TierLanes, MaintainedEqualsRebuilt) {
  for (int sockets : {1, 2}) {
    SCOPED_TRACE(sockets);
    TierRig rig(sockets);
    std::mt19937_64 rng(static_cast<uint64_t>(sockets) + 20);
    for (uint64_t round = 0; round < 6; round++) {
      std::vector<uint64_t> keys;
      for (int i = 0; i < 500; i++) keys.push_back(rng() % (1u << 14));
      keys.push_back(round);              // below most of the tier
      keys.push_back((1u << 14) + round);  // past its end
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      std::vector<tier::TierEntry> entries;
      for (uint64_t k : keys) {
        entries.push_back({k, k * 2 + round,
                           static_cast<int>((k >> 3) % sockets)});
      }
      ASSERT_TRUE(rig.tier->InsertBatch(entries.data(), entries.size()));
      auto rebuilt = tier::PersistentTier::Open(
          rig.pool.get(), rig.allocator.get(), sockets, {0, 1},
          rig.tier->root_off(), nullptr);
      ASSERT_EQ(rig.tier->DebugLanes(), rebuilt->DebugLanes())
          << "round " << round;
      ASSERT_EQ(rig.tier->lane_bytes(), rebuilt->lane_bytes());
      ASSERT_EQ(rig.tier->node_count(), rebuilt->node_count());
    }
  }
}

// A tiering thread merges batches while readers gather. Every window must
// be strictly ascending, hold only tiered keys, and hold every key whose
// batch was merged before the window began (up to the window's last key
// when it is full).
TEST(TierLanes, GatherRacesInsertBatch) {
  for (int sockets : {1, 2}) {
    SCOPED_TRACE(sockets);
    TierRig rig(sockets);
    constexpr int kBatches = 24;
    constexpr uint64_t kKeys = 6000;
    // Key k*3 joins a random batch, so later batches thread new nodes
    // between old ones and split their segments.
    std::vector<int> batch_of(kKeys);
    std::vector<std::vector<tier::TierEntry>> batches(kBatches);
    std::mt19937_64 rng(5);
    for (uint64_t i = 0; i < kKeys; i++) {
      batch_of[i] = static_cast<int>(rng() % kBatches);
      batches[static_cast<size_t>(batch_of[i])].push_back(
          {i * 3, i, static_cast<int>(i % static_cast<uint64_t>(sockets))});
    }
    std::atomic<int> merged{0};
    std::atomic<int> gathers{0};
    std::atomic<int> readers{2};  // a failed reader stops early
    std::thread tierer([&] {
      for (int b = 0; b < kBatches; b++) {
        // Let the readers run between merges, so windows straddle them.
        while (gathers.load(std::memory_order_acquire) < 8 * b &&
               readers.load(std::memory_order_acquire) == 2) {
          std::this_thread::yield();
        }
        const auto& e = batches[static_cast<size_t>(b)];
        EXPECT_TRUE(rig.tier->InsertBatch(e.data(), e.size()));
        merged.store(b + 1, std::memory_order_release);
      }
    });
    auto reader = [&](uint64_t seed) {
      struct Exit {
        std::atomic<int>* readers;
        ~Exit() { readers->fetch_sub(1, std::memory_order_release); }
      } exit{&readers};
      std::mt19937_64 r(seed);
      std::vector<uint64_t> got;
      bool last_pass = false;
      while (!last_pass) {
        const int before = merged.load(std::memory_order_acquire);
        last_pass = before == kBatches;
        const uint64_t start = r() % (kKeys * 3 + 10);
        const size_t want = 1 + r() % 150;
        got.clear();
        rig.tier->Gather(start, want, &got);
        gathers.fetch_add(1, std::memory_order_release);
        ASSERT_LE(got.size(), want);
        for (size_t j = 0; j < got.size(); j++) {
          ASSERT_TRUE(got[j] >= start && got[j] % 3 == 0 &&
                      got[j] / 3 < kKeys)
              << got[j];
          if (j > 0) {
            ASSERT_LT(got[j - 1], got[j]);
          }
        }
        const uint64_t bound = got.size() == want ? got.back() : UINT64_MAX;
        size_t at = 0;
        for (uint64_t i = (start + 2) / 3; i < kKeys && i * 3 <= bound; i++) {
          if (batch_of[i] >= before) continue;
          while (at < got.size() && got[at] < i * 3) at++;
          ASSERT_TRUE(at < got.size() && got[at] == i * 3)
              << "key " << i * 3 << " merged before the gather is missing"
              << " (start " << start << ", want " << want << ")";
        }
      }
    };
    std::thread r1(reader, 1), r2(reader, 2);
    tierer.join();
    r1.join();
    r2.join();
    std::vector<uint64_t> all;
    ASSERT_EQ(rig.tier->Gather(0, kKeys + 1, &all), kKeys);
  }
}

// Every scan path pays for the log entries it decodes: one charged media
// read per row (embedded values), on top of whatever the key source read.
TEST(Tier, ClockBoundScanChargesOneEntryFetchPerRow) {
  for (bool tier : {false, true}) {
    SCOPED_TRACE(tier);
    auto pool = MakePool();
    FlatStoreOptions fo = TierOptions();
    fo.tier_enabled = tier;
    // FlatStore-M keeps its ordered index in DRAM, so each of its charged
    // media reads is an entry fetch.
    if (!tier) fo.index = IndexKind::kMasstree;
    auto store = FlatStore::Create(pool.get(), fo);
    for (uint64_t k = 0; k < 600; k++) store->Put(k, ValueFor(k, 1, 40));
    if (tier) {
      store->SealActiveLogChunks();
      for (uint64_t k = 600; k < 608; k++) store->Put(k, ValueFor(k, 1, 40));
      ASSERT_GT(store->RunTieringOnce(), 0u);
    }
    vt::Clock clock;
    vt::ScopedClock bind(&clock);
    const uint64_t before = pool->stats().Get().reads;
    ScanRows rows;
    ASSERT_EQ(store->Scan(100, 150, &rows), 150u);
    const uint64_t reads = pool->stats().Get().reads - before;
    if (tier) {
      EXPECT_GT(reads, 150u);  // entry fetches plus the tier's node reads
    } else {
      EXPECT_EQ(reads, 150u);
    }
    // Full iteration decodes through the same wave.
    const uint64_t mid = pool->stats().Get().reads;
    ScanRows full;
    ASSERT_EQ(store->ScanFullIteration(100, 150, &full), 150u);
    EXPECT_EQ(full, rows);
    EXPECT_EQ(pool->stats().Get().reads - mid, 150u);
  }
}

// Windows are exact, so every tombstone or vanished key inside the tier
// range forces another window; the result must not notice.
TEST(Tier, ScanSpansWindowsAcrossTieredTombstones) {
  auto pool = MakePool(256);
  auto store = FlatStore::Create(pool.get(), TierOptions());
  constexpr uint64_t kKeys = 1200;
  for (uint64_t k = 0; k < kKeys; k++) store->Put(k, ValueFor(k, 0, 40));
  // Tombstones that convert into the tier with their keys...
  for (uint64_t k = 200; k < 500; k += 3) ASSERT_TRUE(store->Delete(k));
  store->SealActiveLogChunks();
  for (uint64_t k = kKeys; k < kKeys + 8; k++) {
    store->Put(k, ValueFor(k, 0, 40));  // move the durable tails on
  }
  ASSERT_GT(store->RunTieringOnce(), 0u);
  // ...and deletes after tiering, whose tier nodes still name the key.
  for (uint64_t k = 500; k < 900; k += 2) ASSERT_TRUE(store->Delete(k));
  for (uint64_t start : {0u, 150u, 200u, 333u, 480u, 501u, 899u}) {
    for (uint64_t count : {1u, 7u, 50u, 130u, 400u}) {
      ScanRows merged, full;
      const uint64_t a = store->Scan(start, count, &merged);
      ASSERT_EQ(a, store->ScanFullIteration(start, count, &full))
          << start << "+" << count;
      ASSERT_EQ(merged, full) << start << "+" << count;
    }
  }
}

// A store created without the tier keeps no delta sets, so a tiering
// pass must not create a tier behind its back: the keys written before
// it would be invisible to the merged scan. Enabling the tier takes a
// reopen, whose replay rebuilds the delta sets.
TEST(Tier, TieringPassWithoutTheTierConvertsNothing) {
  auto pool = MakePool();
  FlatStoreOptions fo = TierOptions();
  fo.tier_enabled = false;
  {
    auto store = FlatStore::Create(pool.get(), fo);
    for (uint64_t k = 0; k < 512; k++) store->Put(k, ValueFor(k, 1, 40));
    store->SealActiveLogChunks();
    for (uint64_t k = 512; k < 520; k++) store->Put(k, ValueFor(k, 1, 40));
    EXPECT_EQ(store->RunTieringOnce(), 0u);
    EXPECT_EQ(store->tier(), nullptr);
    EXPECT_FALSE(store->CanScan());
    EXPECT_EQ(store->ChunksTiered(), 0u);
  }
  auto store = FlatStore::Open(pool.get(), TierOptions());
  ASSERT_NE(store->tier(), nullptr);
  EXPECT_GT(store->RunTieringOnce(), 0u);
  EXPECT_EQ(store->DebugCheckTierDelta(), std::nullopt);
  ScanRows rows, full;
  EXPECT_EQ(store->ScanFullIteration(0, 520, &full), 520u);
  EXPECT_EQ(store->Scan(0, 520, &rows), 520u);
  EXPECT_EQ(rows, full);
}

// The saving itself: a key only the tier proposes is served from its
// node's entry word, with no index probe. A 100-key window over fully
// tiered keys must charge at least one hash per row less than the same
// window once every key in it is overwritten (so all of them sit in delta
// sets and resolve through the index); both windows stay exact.
TEST(Tier, TieredRowsSkipTheIndexProbe) {
  auto pool = MakePool();
  auto store = FlatStore::Create(pool.get(), TierOptions());
  for (uint64_t k = 0; k < 600; k++) store->Put(k, ValueFor(k, 1, 40));
  store->SealActiveLogChunks();
  for (uint64_t k = 600; k < 608; k++) store->Put(k, ValueFor(k, 1, 40));
  while (store->RunTieringOnce() > 0) {
  }
  auto window = [&](const char* what) {
    ScanRows rows, full;
    uint64_t charged = 0;
    {
      vt::Clock clock;
      vt::ScopedClock bind(&clock);
      const uint64_t t0 = clock.now();
      EXPECT_EQ(store->Scan(200, 100, &rows), 100u) << what;
      charged = clock.now() - t0;
    }
    EXPECT_EQ(store->ScanFullIteration(200, 100, &full), 100u) << what;
    EXPECT_EQ(rows, full) << what;
    return charged;
  };
  const uint64_t tiered = window("tiered");
  for (uint64_t k = 200; k < 300; k++) store->Put(k, ValueFor(k, 2, 40));
  const uint64_t delta = window("delta");
  EXPECT_GE(delta, tiered + 100 * vt::kCpuHash)
      << "tiered window " << tiered << " ns, delta window " << delta << " ns";
  EXPECT_EQ(store->DebugCheckTierDelta(), std::nullopt);
}

}  // namespace
}  // namespace core
}  // namespace flatstore
