#include "tier/tier.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <sstream>
#include <utility>

#include "vt/clock.h"
#include "vt/costs.h"

namespace flatstore {
namespace tier {

// A DRAM lane node: the volatile express-lane entry of one PM node of
// height >= 2, or the lane head (off 0, kMaxHeight - 1 links). The links
// follow this header in the same allocation: next(l) is the level-l
// successor, for l in [1, NodeHeight(key)). `count` is the node's segment
// count: the L0 nodes from this node (inclusive; for the head, from the L0
// head) up to the next level-1 node.
struct LaneNode {
  uint64_t key;
  uint64_t off;  // PM offset of the TierNode; 0 for a lane head
  std::atomic<uint64_t> count;

  std::atomic<LaneNode*>& next(int level) {
    return reinterpret_cast<std::atomic<LaneNode*>*>(this + 1)[level - 1];
  }
  const std::atomic<LaneNode*>& next(int level) const {
    return reinterpret_cast<const std::atomic<LaneNode*>*>(this + 1)
        [level - 1];
  }
};

namespace {

// Bytes of a lane node with links for levels [1, height).
constexpr uint64_t LaneNodeBytes(int height) {
  return sizeof(LaneNode) +
         sizeof(std::atomic<LaneNode*>) * static_cast<uint64_t>(height - 1);
}

// Bytes usable for nodes in one arena chunk, after the allocator header
// and the arena header.
constexpr uint64_t kArenaDataOff =
    alloc::kChunkHeaderSize + sizeof(ArenaHeader);
constexpr uint64_t kArenaCapacity = alloc::kChunkSize - kArenaDataOff;
static_assert(kArenaDataOff % sizeof(TierNode) == 0 &&
                  sizeof(TierRoot) % sizeof(TierNode) == 0,
              "every node starts 32-byte aligned, inside one cache line");

// DRAM block size of the lane-node bump arena.
constexpr uint64_t kLaneBlockBytes = 64 << 10;

inline uint64_t LoadLink(const uint64_t* slot) {
  return std::atomic_ref<const uint64_t>(*slot).load(
      std::memory_order_acquire);
}

inline void StoreLink(uint64_t* slot, uint64_t v) {
  std::atomic_ref<uint64_t>(*slot).store(v, std::memory_order_release);
}

inline LaneNode* LoadLane(const std::atomic<LaneNode*>& link) {
  return link.load(std::memory_order_acquire);
}

inline uint64_t LoadCount(const LaneNode* n) {
  // relaxed: a segment count is a read-planning hint; Gather reads every
  // segment but the last to its end, so a stale count costs reads only.
  return n->count.load(std::memory_order_relaxed);
}

inline void StoreCount(LaneNode* n, uint64_t v) {
  // relaxed: single mutator; readers treat the count as a hint (above).
  n->count.store(v, std::memory_order_relaxed);
}

}  // namespace

PersistentTier::PersistentTier(pm::PmPool* pool, alloc::LazyAllocator* alloc,
                               int num_sockets, uint64_t root_off)
    : pool_(pool),
      alloc_(alloc),
      num_sockets_(num_sockets < 1 ? 1 : num_sockets),
      root_off_(root_off),
      arena_global_tail_(root_off) {
  if (num_sockets_ > vt::kMaxSockets) num_sockets_ = vt::kMaxSockets;
  head_ = NewLaneNode(0, 0, kMaxHeight);
}

TierRoot* PersistentTier::tier_root() const {
  return pool_->PtrAt<TierRoot>(root_off_ + alloc::kChunkHeaderSize +
                                sizeof(ArenaHeader));
}

ArenaHeader* PersistentTier::arena_header(uint64_t chunk_off) const {
  return pool_->PtrAt<ArenaHeader>(chunk_off + alloc::kChunkHeaderSize);
}

uint64_t PersistentTier::node_count() const { return node_count_; }

std::unique_ptr<PersistentTier> PersistentTier::Create(
    pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
    const std::vector<int>& socket_cores) {
  const int core0 = socket_cores.empty() ? 0 : socket_cores[0];
  const uint64_t off = alloc->AllocRawChunk(core0);
  if (off == 0) return nullptr;
  auto t = std::unique_ptr<PersistentTier>(
      new PersistentTier(pool, alloc, num_sockets, off));
  t->socket_cores_ = socket_cores;
  ArenaHeader* hdr = t->arena_header(off);
  hdr->next = 0;
  hdr->socket = 0;
  hdr->reserved = 0;
  hdr->used = sizeof(TierRoot);  // the root block is the first reservation
  TierRoot* root = t->tier_root();
  root->head0 = 0;
  root->reserved[0] = 0;
  root->reserved[1] = 0;
  pool->Persist(hdr, sizeof(ArenaHeader));
  pool->Persist(root, sizeof(TierRoot));
  pool->Fence();
  // The magic is the root's validity bit, made durable only after every
  // other field (same idiom as the superblock format). The tier becomes
  // reachable when the caller publishes tier_root_off in the superblock.
  root->magic = kTierMagic;
  pool->PersistFence(&root->magic, sizeof(root->magic));
  t->arena_chunks_.push_back(off);
  t->socket_tail_[0] = off;
  return t;
}

std::unique_ptr<PersistentTier> PersistentTier::Open(
    pm::PmPool* pool, alloc::LazyAllocator* alloc, int num_sockets,
    const std::vector<int>& socket_cores, uint64_t root_off,
    const std::function<void(uint64_t key, uint64_t packed)>& on_node) {
  auto t = std::unique_ptr<PersistentTier>(
      new PersistentTier(pool, alloc, num_sockets, root_off));
  t->socket_cores_ = socket_cores;
  FLATSTORE_CHECK_EQ(t->tier_root()->magic, kTierMagic)
      << "tier root magic mismatch at " << root_off;
  // Walk the arena chain; the last chunk per socket is that socket's
  // allocation tail.
  uint64_t off = root_off;
  while (off != 0) {
    FLATSTORE_CHECK(off % alloc::kChunkSize == 0 &&
                    off + alloc::kChunkSize <= pool->size())
        << "tier arena chain corrupt at " << off;
    t->arena_chunks_.push_back(off);
    const ArenaHeader* hdr = t->arena_header(off);
    const int s = static_cast<int>(hdr->socket) % vt::kMaxSockets;
    t->socket_tail_[s] = off;
    t->arena_global_tail_ = off;
    off = hdr->next;
  }
  t->RebuildLanes(on_node);
  return t;
}

LaneNode* PersistentTier::NewLaneNode(uint64_t key, uint64_t off, int height) {
  const uint64_t bytes = LaneNodeBytes(height);
  if (lane_blocks_.empty() || lane_block_used_ + bytes > kLaneBlockBytes) {
    lane_blocks_.push_back(
        std::make_unique<uint64_t[]>(kLaneBlockBytes / sizeof(uint64_t)));
    lane_block_used_ = 0;
  }
  char* raw =
      reinterpret_cast<char*>(lane_blocks_.back().get()) + lane_block_used_;
  lane_block_used_ += bytes;
  lane_bytes_ += bytes;
  auto* n = new (raw) LaneNode();
  n->key = key;
  n->off = off;
  for (int l = 1; l < height; l++) {
    new (&n->next(l)) std::atomic<LaneNode*>(nullptr);
  }
  return n;
}

void PersistentTier::RebuildLanes(
    const std::function<void(uint64_t key, uint64_t packed)>& on_node) {
  // The L0 list is the durable truth; the DRAM lanes and their segment
  // counts are rebuilt from it in this one walk on every open.
  LaneNode* tails[kMaxHeight];
  for (int l = 1; l < kMaxHeight; l++) tails[l] = head_;
  LaneNode* seg = head_;  // segment head covering the walk
  node_count_ = 0;
  uint64_t cur = tier_root()->head0;
  while (cur != 0) {
    const TierNode* n = NodeAt(cur);
    pool_->ChargeRead(n, sizeof(TierNode));
    FLATSTORE_CHECK(n->home_socket < vt::kMaxSockets && n->pad == 0)
        << "tier node at " << cur << " is corrupt (home socket "
        << n->home_socket << ", pad " << n->pad << ")";
    const int height = NodeHeight(n->key);
    if (height >= 2) {
      LaneNode* lane = NewLaneNode(n->key, cur, height);
      for (int l = 1; l < height; l++) {
        tails[l]->next(l).store(lane, std::memory_order_release);
        tails[l] = lane;
      }
      seg = lane;
    }
    StoreCount(seg, LoadCount(seg) + 1);
    if (on_node) on_node(n->key, n->packed);
    node_count_++;
    cur = n->next;
  }
}

void PersistentTier::ForEachArenaChunk(
    const std::function<void(uint64_t)>& fn) const {
  for (uint64_t off : arena_chunks_) fn(off);
}

uint64_t PersistentTier::AssignNodeBytes(uint64_t bytes, int socket,
                                         std::vector<uint64_t>* dirty) {
  FLATSTORE_DCHECK(bytes <= kArenaCapacity);
  uint64_t tail = socket_tail_[socket];
  if (tail == 0 || arena_header(tail)->used + bytes > kArenaCapacity) {
    const int core =
        static_cast<size_t>(socket) < socket_cores_.size()
            ? socket_cores_[static_cast<size_t>(socket)]
            : 0;
    const uint64_t fresh = alloc_->AllocRawChunk(core);
    if (fresh == 0) return 0;
    ArenaHeader* hdr = arena_header(fresh);
    hdr->next = 0;
    hdr->used = 0;
    hdr->socket = static_cast<uint64_t>(socket);
    pool_->Persist(hdr, sizeof(ArenaHeader));
    pool_->Fence();
    // Publish the chunk on the arena chain only after its header is
    // durable; the 8-byte link store is tear-proof.
    ArenaHeader* prev = arena_header(arena_global_tail_);
    StoreLink(&prev->next, fresh);
    // fs-lint: deferred-fence(the chain link rides InsertBatch's reserve
    // fence; a torn link only leaks the fresh chunk, never corrupts)
    pool_->Persist(&prev->next, sizeof(uint64_t));
    arena_chunks_.push_back(fresh);
    arena_global_tail_ = fresh;
    socket_tail_[socket] = fresh;
    tail = fresh;
  }
  ArenaHeader* hdr = arena_header(tail);
  const uint64_t off = tail + kArenaDataOff + hdr->used;
  // Volatile bump; InsertBatch persists + fences every dirty `used` word
  // before any node byte is written (reserve-then-link). A crash between
  // the fence and the node writes only leaks the reserved bytes.
  hdr->used += bytes;
  dirty->push_back(tail);
  return off;
}

bool PersistentTier::InsertBatch(const TierEntry* entries, size_t n) {
  if (n == 0) return true;
  TierRoot* root = tier_root();

  // Pass A — classify: one forward L0 cursor (the batch is key-sorted)
  // marks which keys already have nodes (in-place update) vs need fresh
  // ones.
  std::vector<bool> is_new(n);
  {
    uint64_t cur = LoadLink(&root->head0);
    for (size_t i = 0; i < n; i++) {
      FLATSTORE_DCHECK(i == 0 || entries[i - 1].key < entries[i].key)
          << "InsertBatch requires a key-sorted, duplicate-free batch";
      while (cur != 0 && NodeAt(cur)->key < entries[i].key) {
        pool_->ChargeRead(NodeAt(cur), sizeof(TierNode));
        cur = LoadLink(&NodeAt(cur)->next);
      }
      is_new[i] = (cur == 0 || NodeAt(cur)->key != entries[i].key);
    }
  }

  // Pass B — reserve-then-link, step 1: durably reserve every new node's
  // bytes. All touched arena `used` words persist under one fence BEFORE
  // any node byte is written, so a post-crash allocator can never hand
  // out bytes under a published node.
  std::vector<uint64_t> offs(n, 0);
  std::vector<uint64_t> dirty;
  for (size_t i = 0; i < n; i++) {
    if (!is_new[i]) continue;
    const int s = entries[i].home_socket % num_sockets_;
    offs[i] = AssignNodeBytes(sizeof(TierNode), s, &dirty);
    if (offs[i] == 0) {
      // Arena exhausted; nothing published. Settle any arena chain-link
      // persists issued while growing, then bail.
      pool_->Fence();
      return false;
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (uint64_t chunk : dirty) {
    pool_->Persist(&arena_header(chunk)->used, sizeof(uint64_t));
  }
  if (!dirty.empty()) pool_->Fence();

  // Pass C — zipper merge: one forward L0 cursor sweeps the batch in a
  // single pass and keeps the DRAM lanes current on the way. pred[l] is
  // the last level-l lane node below the sweep position (the lane head to
  // begin with) — every lane node is a level-1 node, so the L0 sweep
  // passes each in key order — and seg_pos counts the L0 nodes of
  // pred[1]'s segment at or before the position.
  uint64_t* l0_slot = &root->head0;
  LaneNode* pred[kMaxHeight];
  for (int l = 1; l < kMaxHeight; l++) pred[l] = head_;
  uint64_t seg_pos = 0;

  for (size_t i = 0; i < n; i++) {
    const uint64_t key = entries[i].key;
    for (;;) {
      const uint64_t nxt = LoadLink(l0_slot);
      if (nxt == 0 || NodeAt(nxt)->key >= key) break;
      const TierNode* x = NodeAt(nxt);
      pool_->ChargeRead(x, sizeof(TierNode));
      const int xh = NodeHeight(x->key);
      if (xh >= 2) {
        // x heads the next segment.
        LaneNode* lane = LoadLane(pred[1]->next(1));
        FLATSTORE_DCHECK(lane != nullptr && lane->off == nxt);
        vt::ChargeMiss(vt::kCpuCacheMiss);
        for (int l = 1; l < xh; l++) pred[l] = lane;
        seg_pos = 0;
      }
      seg_pos++;
      l0_slot = &NodeAt(nxt)->next;
    }
    const uint64_t succ = LoadLink(l0_slot);
    if (!is_new[i]) {
      FLATSTORE_DCHECK(succ != 0 && NodeAt(succ)->key == key);
      TierNode* node = NodeAt(succ);
      // Tear-proof in-place update: one 8-byte store. The entry it names
      // was persisted by the log append long ago.
      StoreLink(&node->packed, entries[i].packed);
      pool_->Persist(&node->packed, sizeof(uint64_t));
      continue;
    }
    TierNode* node = NodeAt(offs[i]);
    node->key = key;
    node->packed = entries[i].packed;
    node->home_socket =
        static_cast<uint32_t>(entries[i].home_socket % num_sockets_);
    node->pad = 0;
    node->next = succ;
    // Persist-before-publish: the node's bytes are durable and fenced
    // before the single 8-byte L0 link store makes it reachable.
    pool_->Persist(node, sizeof(TierNode));
    pool_->Fence();
    StoreLink(l0_slot, offs[i]);
    // L0 link is 8-byte tear-proof; the batch's trailing fence orders it
    // before the conversion commit (SetChunkTiered).
    pool_->Persist(l0_slot, sizeof(uint64_t));
    l0_slot = &node->next;
    node_count_++;

    // DRAM lanes. A node of height 1 joins the segment under the
    // position.
    const int height = NodeHeight(key);
    if (height < 2) {
      StoreCount(pred[1], LoadCount(pred[1]) + 1);
      seg_pos++;
      continue;
    }
    // Split pred[1]'s segment: it keeps its seg_pos nodes before the new
    // node, which heads the rest. The lane node is complete before the
    // release stores below publish it; a reader that still sees the old
    // count reads the shorter segment and plans on (Gather).
    LaneNode* lane = NewLaneNode(key, offs[i], height);
    LaneNode* split = pred[1];
    StoreCount(lane, LoadCount(split) + 1 - seg_pos);
    for (int l = 1; l < height; l++) {
      lane->next(l).store(LoadLane(pred[l]->next(l)),
                          std::memory_order_release);
    }
    // One miss for the new lane node and one per distinct predecessor it
    // links under (the level-1 one was entered by the sweep already).
    vt::ChargeMiss(vt::kCpuCacheMiss);
    const LaneNode* linked = split;
    for (int l = 1; l < height; l++) {
      if (pred[l] != linked) {
        vt::ChargeMiss(vt::kCpuCacheMiss);
        linked = pred[l];
      }
      pred[l]->next(l).store(lane, std::memory_order_release);
      pred[l] = lane;
    }
    StoreCount(split, seg_pos);
    seg_pos = 1;
  }
  // Orders the batch's deferred persists before the caller's conversion
  // commit (SetChunkTiered).
  pool_->Fence();
  return true;
}

const LaneNode* PersistentTier::Level1Pred(uint64_t target) const {
  const LaneNode* p = head_;
  const LaneNode* seen = nullptr;  // a node compared one level up is cached
  for (int level = kMaxHeight - 1; level >= 1; level--) {
    for (;;) {
      const LaneNode* nxt = LoadLane(p->next(level));
      if (nxt == nullptr) break;
      if (nxt != seen) vt::ChargeMiss(vt::kCpuCacheMiss);
      seen = nxt;
      if (nxt->key >= target) break;
      p = nxt;
    }
  }
  return p;
}

uint64_t* PersistentTier::FindL0Slot(uint64_t target) const {
  const LaneNode* p = Level1Pred(target);
  // Drop to the global L0 list: from the L0 head below a lane head, else
  // from the lane node's PM node, whose key is below the target.
  uint64_t* slot = &tier_root()->head0;
  if (p->off != 0) {
    TierNode* n = NodeAt(p->off);
    pool_->ChargeRead(n, sizeof(TierNode));
    slot = &n->next;
  }
  for (;;) {
    const uint64_t nxt = LoadLink(slot);
    if (nxt == 0 || NodeAt(nxt)->key >= target) break;
    pool_->ChargeRead(NodeAt(nxt), sizeof(TierNode));
    slot = &NodeAt(nxt)->next;
  }
  return slot;
}

bool PersistentTier::Get(uint64_t key, uint64_t* packed) const {
  uint64_t* slot = FindL0Slot(key);
  const uint64_t nxt = LoadLink(slot);
  if (nxt == 0) return false;
  const TierNode* n = NodeAt(nxt);
  pool_->ChargeRead(n, sizeof(TierNode));
  if (n->key != key) return false;
  *packed = LoadLink(&n->packed);
  return true;
}

size_t PersistentTier::Gather(uint64_t start, size_t want,
                              std::vector<uint64_t>* out,
                              std::vector<uint64_t>* packed) const {
  if (want == 0) return 0;
  constexpr uint64_t kToEnd = UINT64_MAX;

  // One chain per planned segment, in key order. A chain reads from
  // `next` until it reaches `end` (the next segment's head; 0 = tier end)
  // or, for the cut-short last segment, until it holds `take` keys.
  struct Chain {
    uint64_t next;
    uint64_t end;
    uint64_t keys;    // keys >= start read so far
    uint64_t expect;  // keys >= start the segment count promises
    uint64_t take;    // kToEnd, or the keys the last segment owes
    bool queued;      // waiting in `pending` or reading in `open`
  };
  std::vector<Chain> chains;
  auto at_end = [](const Chain& c) { return c.next == c.end; };
  auto goal = [](const Chain& c) { return std::min(c.expect, c.take); };
  // Keys a chain is expected to deliver: what it read once it ended.
  auto share = [&](const Chain& c) {
    return at_end(c) ? c.keys : std::max(c.keys, goal(c));
  };
  uint64_t planned = 0;  // sum of every chain's share

  // Chains that can read wait in a max-heap on their expected length, so
  // each round reads the longest segments first; they bound the rounds.
  std::vector<size_t> pending;
  auto shorter = [&](size_t a, size_t b) {
    return goal(chains[a]) < goal(chains[b]);
  };
  auto enqueue = [&](size_t j) {
    chains[j].queued = true;
    pending.push_back(j);
    std::push_heap(pending.begin(), pending.end(), shorter);
  };

  // Segment 0 holds `start`: it runs from the descent's lane node (whose
  // own key is below start) or from the L0 head. Its count is taken as if
  // all of it were >= start; the shortfall shows when it ends.
  const LaneNode* next_head = Level1Pred(start);
  auto plan = [&] {
    if (!chains.empty() && chains.back().take != kToEnd &&
        !at_end(chains.back())) {
      // The cut segment reads on: as far as its count reaches, then in
      // full, with later segments covering the rest.
      Chain& last = chains.back();
      planned -= share(last);
      const uint64_t owed = want - planned;
      last.take = owed <= last.expect ? owed : kToEnd;
      planned += share(last);
      if (!last.queued) {
        enqueue(chains.size() - 1);
      } else {
        std::make_heap(pending.begin(), pending.end(), shorter);
      }
    }
    while (planned < want && next_head != nullptr) {
      const LaneNode* head = next_head;
      // The descent compared segment 0's and segment 1's heads already.
      if (chains.size() >= 2) vt::ChargeMiss(vt::kCpuCacheMiss);
      next_head = LoadLane(head->next(1));
      Chain c;
      c.next = head->off;
      c.expect = LoadCount(head);
      if (chains.empty()) {
        if (head->off == 0) {
          c.next = LoadLink(&tier_root()->head0);
        } else if (c.expect > 0) {
          c.expect--;  // the head itself sits below start
        }
      }
      c.end = next_head != nullptr ? next_head->off : 0;
      c.keys = 0;
      const uint64_t owed = want - planned;
      c.take = c.expect >= owed ? owed : kToEnd;
      c.queued = false;
      planned += share(c);
      chains.push_back(c);
      if (!at_end(c)) enqueue(chains.size() - 1);
    }
  };
  plan();

  // {key, packed} of every node >= start read, any order.
  std::vector<std::pair<uint64_t, uint64_t>> found;
  std::vector<size_t> open;     // chains read this round
  vt::Clock* clock = vt::CurrentClock();
  for (;;) {
    while (open.size() < static_cast<size_t>(vt::kMemParallelism) &&
           !pending.empty()) {
      std::pop_heap(pending.begin(), pending.end(), shorter);
      open.push_back(pending.back());
      pending.pop_back();
    }
    if (open.empty()) break;
    // Issue every read of the round at one instant; the round ends when
    // the slowest lands (the MultiGet phase-C idiom).
    if (clock != nullptr) {
      const uint64_t issue = clock->now();
      uint64_t done = issue;
      for (size_t j : open) {
        vt::Charge(vt::kPrefetchIssueCost);
        done = std::max(done, pool_->ChargeReadAt(NodeAt(chains[j].next),
                                                  sizeof(TierNode), issue));
      }
      clock->AdvanceTo(done);
    }
    size_t still = 0;
    for (size_t j : open) {
      Chain& c = chains[j];
      planned -= share(c);
      const TierNode* n = NodeAt(c.next);
      if (n->key >= start) {
        found.emplace_back(n->key, LoadLink(&n->packed));
        c.keys++;
      }
      c.next = LoadLink(&n->next);
      planned += share(c);
      if (!at_end(c) && c.keys < c.take) {
        open[still++] = j;
      } else {
        c.queued = false;
      }
    }
    open.resize(still);
    if (planned < want) plan();
  }
  // Every segment but the last was read to its end, so the found keys are
  // the smallest >= start.
  std::sort(found.begin(), found.end());
  const size_t n = std::min<size_t>(found.size(), want);
  for (size_t i = 0; i < n; i++) {
    out->push_back(found[i].first);
    if (packed != nullptr) packed->push_back(found[i].second);
  }
  return n;
}

std::string PersistentTier::DebugLanes() const {
  std::ostringstream os;
  os << "head #" << LoadCount(head_) << "\n";
  for (int l = 1; l < kMaxHeight; l++) {
    os << "L" << l << ":";
    for (const LaneNode* p = LoadLane(head_->next(l)); p != nullptr;
         p = LoadLane(p->next(l))) {
      os << ' ' << p->key << '@' << p->off;
      if (l == 1) os << '#' << LoadCount(p);
    }
    os << "\n";
  }
  return os.str();
}

void PersistentTier::ForEach(
    const std::function<void(uint64_t key, uint64_t packed)>& fn) const {
  uint64_t cur = LoadLink(&tier_root()->head0);
  while (cur != 0) {
    const TierNode* n = NodeAt(cur);
    pool_->ChargeRead(n, sizeof(TierNode));
    fn(n->key, LoadLink(&n->packed));
    cur = LoadLink(&n->next);
  }
}

}  // namespace tier
}  // namespace flatstore
