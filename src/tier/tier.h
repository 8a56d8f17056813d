// Ordered persistent tier: a persistent skiplist whose nodes alias value
// bytes still sitting in converted ("tiered") OpLog chunks, with its
// express lanes in DRAM.
//
// The tier is FlatStore's answer to two linear costs of a pure log
// (DESIGN.md §11): recovery replaying every log byte, and range scans
// having no ordered path when the volatile index is a hash. Following
// ListDB's Index-Unified Logging, a background tiering pass converts a
// sealed log chunk's live entries *in place* into 32-byte PM nodes — the
// node stores the entry's packed {offset, version} word, never a copy of
// the value — and then stamps the chunk's registry record with the
// persistent kChunkTiered flag. From then on recovery loads the tier's
// durable level-0 list instead of replaying the chunk, so recovery time
// tracks the live-key count, not the log size.
//
// Durability contract (what crash_explorer exercises):
//
//   * Only the PM node bytes and the level-0 ("L0") forward links are
//     durable state. Every node is persisted and fenced BEFORE the single
//     8-byte L0 link store that publishes it (persist-before-publish), so
//     a crash leaves a valid L0 list containing some subset of the
//     in-flight batch — never a link to a torn node.
//   * Arena allocation is reserve-then-link: the arena header's `used`
//     high-water mark is persisted and fenced before any reserved byte is
//     written. A crash can leak reserved-but-unlinked bytes; it can never
//     let a later allocation overwrite a published node.
//   * The express lanes above L0 are volatile: DRAM lane nodes,
//     one per PM node of height >= 2, rebuilt from the L0 walk on every
//     open — the same volatile-index-over-persistent-log split as the
//     engine itself. No lane store touches PM. One lane set covers every
//     node; a node's home socket decides only which socket's arena
//     chunks hold it.
//   * In-place updates of an existing key touch exactly one 8-byte
//     `packed` word (atomic store + persist), so they are tear-proof.
//
// Concurrency: single mutator (the tiering pass is serialized by the
// caller), lock-free concurrent readers. L0 links, lane links and
// `packed` go through release/acquire atomics; segment counts are relaxed
// hints whose staleness costs reads, never keys (Gather below).

#ifndef FLATSTORE_TIER_TIER_H_
#define FLATSTORE_TIER_TIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/lazy_allocator.h"
#include "common/logging.h"
#include "pm/pm_pool.h"
#include "vt/costs.h"

namespace flatstore {
namespace tier {

inline constexpr uint64_t kTierMagic = 0x11E2F1A757025Bull;

// Max skiplist height. With branching factor 4 (NodeHeight below), height
// 12 indexes ~4^11 ≈ 4M nodes — plenty for the simulated pool sizes this
// engine targets.
inline constexpr int kMaxHeight = 12;

// One persistent skiplist node: 32 bytes, 32-byte aligned in the arena,
// so a node never straddles a cache line. `next` is the single global L0
// list, the tier's only durable link. The node carries no value bytes:
// `packed` is the same {entry offset, version} word the volatile index
// stores, and the entry it names lives forever in its (tiered, never
// freed) log chunk. The node's height is not stored — NodeHeight(key)
// recomputes it — and its lane links live in DRAM (LaneNode).
struct TierNode {
  uint64_t key;
  uint64_t packed;  // log::PackIndexValue format; atomically updated
  uint32_t home_socket;
  uint32_t pad;     // zero
  uint64_t next;    // L0 successor (0 = end)
};
static_assert(sizeof(TierNode) == 32, "tier nodes are one half cache line");

// Deterministic node height from the key (splitmix64 finalizer, branching
// factor 1/4). Nodes of height >= 2 get a DRAM lane node. Determinism
// makes recovery rebuild identical lane shapes.
inline int NodeHeight(uint64_t key) {
  uint64_t z = key * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  int h = 1;
  while (h < kMaxHeight && (z & 3) == 0) {
    h++;
    z >>= 2;
  }
  return h;
}

// Arena bookkeeping at chunk_off + alloc::kChunkHeaderSize of every tier
// arena chunk. `used` counts bytes consumed after this header and is the
// durable reservation high-water mark; `next` chains arena chunks (the
// chain is how recovery and fsck enumerate them — arena chunks are NOT in
// the log chunk registry, which holds only log segments). `socket` is the
// socket this chunk serves nodes for, so reopening rebuilds the
// per-socket allocation tails.
struct ArenaHeader {
  uint64_t next;
  uint64_t used;
  uint64_t socket;
  uint64_t reserved;  // pads the header so nodes start 32-byte aligned
};

// Tier root, immediately after the first arena chunk's ArenaHeader. The
// superblock's tier_root_off points at that chunk.
struct TierRoot {
  uint64_t magic;
  uint64_t head0;        // L0 head node offset (0 = empty tier)
  uint64_t reserved[2];  // keeps the first node 32-byte aligned
};

// One key to merge into the tier.
struct TierEntry {
  uint64_t key;
  uint64_t packed;
  int home_socket;
};

// A DRAM express-lane node (defined in tier.cc).
struct LaneNode;

class PersistentTier {
 public:
  // Formats a fresh tier: allocates the root arena chunk and persists an
  // empty TierRoot. `socket_cores[s]` names a core homed on socket s —
  // the arena allocates each socket's node chunks through that core so
  // nodes land socket-local (PR 8 placement). Returns nullptr if the
  // pool is out of chunks.
  static std::unique_ptr<PersistentTier> Create(
      pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
      const std::vector<int>& socket_cores);

  // Opens an existing tier rooted at `root_off`: walks the arena chain,
  // then walks L0 once to rebuild the DRAM lanes and segment counts, invoking
  // `on_node(key, packed)` for every node (recovery uses this to feed the
  // volatile index without a second walk). `on_node` may be null.
  static std::unique_ptr<PersistentTier> Open(
      pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
      const std::vector<int>& socket_cores, uint64_t root_off,
      const std::function<void(uint64_t key, uint64_t packed)>& on_node);

  uint64_t root_off() const { return root_off_; }
  uint64_t node_count() const;
  uint64_t arena_chunk_count() const { return arena_chunks_.size(); }
  // DRAM held by the lane nodes (lane heads included).
  uint64_t lane_bytes() const { return lane_bytes_; }

  // Invokes `fn` for every arena chunk offset (recovery marks them
  // allocated; fsck walks them).
  void ForEachArenaChunk(const std::function<void(uint64_t)>& fn) const;

  // Zipper-merges a key-sorted, duplicate-free batch into the tier.
  // Existing keys take the tear-proof in-place packed update; new keys
  // get freshly reserved nodes with per-node persist-before-publish on
  // the L0 link. The same merge sweep splices each new node of height
  // >= 2 into the DRAM lanes and keeps the segment counts exact, charging
  // each lane node it touches as a cache miss.
  // One trailing fence covers the batch's deferred persists; the caller's
  // conversion commit (SetChunkTiered) happens after this returns. Single
  // mutator only. Returns false (with no partial batch published beyond
  // already-fenced nodes — which are harmlessly idempotent) if the pool
  // cannot grow the arena.
  bool InsertBatch(const TierEntry* entries, size_t n);

  // Point lookup.
  bool Get(uint64_t key, uint64_t* packed) const;

  // Appends to `*out`, in key order, the first `want` keys >= `start`
  // (fewer only when the tier runs out), and — when `packed` is non-null
  // — each key's node `packed` word to `*packed` in the same order.
  // Read-only; the words are what the nodes held when read, which a
  // caller may serve only behind its own freshness rule (the engine's
  // delta sets, DESIGN.md §11.4).
  //
  // The level-1 lane cuts L0 into segments. Gather descends the DRAM
  // lanes to the segment holding `start`, then plans from the segment
  // counts exactly which segments cover `want` keys: every planned segment
  // is read to its end except the last, which is cut at the keys still
  // owed. Each planned segment is an independent chain whose head offset
  // the lane node already holds; every round issues one node read per
  // unfinished chain (at most vt::kMemParallelism, longest first) at one
  // vt instant and waits for the slowest. A segment that delivers fewer
  // keys than planned (the start segment's keys below `start`, or a count
  // a concurrent InsertBatch made stale) extends the plan from the lane,
  // so a stale count costs reads, never a key. With current counts a call
  // reads exactly min(want, available) keys >= `start`, plus the start
  // segment's nodes below `start`.
  size_t Gather(uint64_t start, size_t want, std::vector<uint64_t>* out,
                std::vector<uint64_t>* packed = nullptr) const;

  // Renders the lanes — each level's keys and PM offsets, and every
  // segment count — as text. Tests compare a maintained tier against
  // a freshly opened one; not for serving paths.
  std::string DebugLanes() const;

  // In-order walk over every node (tests, fsck, recovery block marking).
  void ForEach(
      const std::function<void(uint64_t key, uint64_t packed)>& fn) const;

 private:
  PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                 int num_sockets, uint64_t root_off);

  TierRoot* tier_root() const;
  ArenaHeader* arena_header(uint64_t chunk_off) const;
  TierNode* NodeAt(uint64_t off) const {
    return pool_->PtrAt<TierNode>(off);
  }

  // DRAM descent down the lanes: returns the last level-1 lane node with
  // key < target, or the lane head. Charges one cache miss per distinct
  // lane node compared.
  const LaneNode* Level1Pred(uint64_t target) const;

  // Full descent: returns the address of the L0 link slot whose successor
  // is the first node with key >= target (the slot lives either in
  // TierRoot::head0 or in a node's next).
  uint64_t* FindL0Slot(uint64_t target) const;

  // Bump-allocates a lane node with null links and a zero count.
  LaneNode* NewLaneNode(uint64_t key, uint64_t off, int height);

  // Volatile-only arena bump: assigns `bytes` from socket `socket`'s tail
  // chunk, growing the chain if needed, and records the touched header in
  // `dirty`. The durable `used` persists + fence happen once per batch in
  // InsertBatch, BEFORE any node byte is written (reserve-then-link).
  uint64_t AssignNodeBytes(uint64_t bytes, int socket,
                           std::vector<uint64_t>* dirty);

  void RebuildLanes(
      const std::function<void(uint64_t key, uint64_t packed)>& on_node);

  pm::PmPool* pool_;
  alloc::LazyAllocator* alloc_;
  int num_sockets_;
  std::vector<int> socket_cores_;
  uint64_t root_off_;
  uint64_t node_count_ = 0;
  std::vector<uint64_t> arena_chunks_;  // chain mirror, head first
  uint64_t arena_global_tail_;          // last chunk in the chain
  // Per-socket allocation tail chunk (0 = none yet).
  uint64_t socket_tail_[vt::kMaxSockets] = {};

  // DRAM lanes over every node, rebuilt on open. Lane nodes live in bump
  // blocks freed only with the tier, so a reader never sees one vanish;
  // only the mutator allocates.
  LaneNode* head_ = nullptr;
  std::vector<std::unique_ptr<uint64_t[]>> lane_blocks_;
  uint64_t lane_block_used_ = 0;  // bytes used in lane_blocks_.back()
  uint64_t lane_bytes_ = 0;
};

}  // namespace tier
}  // namespace flatstore

#endif  // FLATSTORE_TIER_TIER_H_
