// Epoch-based reclamation (EBR) for log-entry dereferences.
//
// The serving cores dereference log entries through the volatile index
// (Get, Drain-retire, Scan, write admission) while the log cleaner relocates
// survivors and frees victim chunks. The original design closed the
// read-after-free window with a per-group std::shared_mutex: every
// dereference was an atomic RMW on a lock line shared by the whole group,
// the classic incidental-sharing pattern that swamps the PM-specific
// costs once flushes are batched away.
//
// This manager replaces the lock with classic three-epoch EBR:
//
//  * Read side: a core *pins* the current global epoch by storing it into
//    its own cacheline-aligned slot (plain store, no RMW, no shared-line
//    traffic) before dereferencing, and stores kIdle after. One slot per
//    serving core, claimed implicitly by core id; threads outside the
//    per-core protocol (Scan, Size, tests) claim a guest slot with a CAS
//    — cheap, but off the per-op hot path.
//
//  * Reclaim side: the cleaner unlinks a victim chunk (CAS-swings the
//    index to relocated copies), then hands the physical free to
//    Defer(). The global epoch may advance from E to E+1 only when every
//    pinned slot has observed E; a deferred free recorded in epoch E runs
//    once the global epoch reaches E+2 — by then every reader that could
//    have loaded a pre-unlink pointer has unpinned.
//
// The pin handshake (store slot, then re-check the global epoch and
// re-store if it moved) guarantees the reclaimer either sees the pin or
// the reader sees the newer epoch; both orders are safe. Pinning an
// already-pinned slot is a bug (the inner unpin would strip the outer
// guard's protection) and is DCHECK'd.

#ifndef FLATSTORE_COMMON_EPOCH_H_
#define FLATSTORE_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/logging.h"
#include "common/thread_annotations.h"
#include "pm/pm_stats.h"

namespace flatstore {
namespace common {

class EpochManager {
 public:
  // Slot value while not pinned. The global epoch starts at 1 so kIdle
  // can never be confused with a real epoch.
  static constexpr uint64_t kIdle = 0;

  // `owned_slots` are reserved for single-owner contexts (one per serving
  // core, pinned by id with plain stores); `guest_slots` are claimed with
  // a CAS by threads outside the per-core protocol. `stats`, when given,
  // mirrors the reclamation counters (epoch advances, deferred frees,
  // deferred-queue high-water mark) for test/bench introspection.
  explicit EpochManager(int owned_slots, int guest_slots = 16,
                        pm::PmStats* stats = nullptr);
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // ---- read side (hot path) ----

  // Pins `slot` to the current global epoch. The caller must be the
  // slot's single owner and the slot must not already be pinned.
  FS_HOT void Pin(int slot);
  // Ends `slot`'s critical section.
  FS_HOT void Unpin(int slot);

  // Claims and pins a guest slot; returns its id. Aborts if every guest
  // slot is simultaneously pinned (bound the number of concurrent guest
  // readers by `guest_slots`).
  int PinGuest();
  // Unpins and releases a guest slot returned by PinGuest().
  void UnpinGuest(int slot);

  // RAII pin of an owned (per-core) slot.
  class Guard {
   public:
    Guard(EpochManager* m, int slot) : m_(m), slot_(slot) { m_->Pin(slot); }
    ~Guard() { m_->Unpin(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochManager* m_;
    int slot_;
  };

  // RAII claim+pin of a guest slot.
  class GuestGuard {
   public:
    explicit GuestGuard(EpochManager* m) : m_(m), slot_(m->PinGuest()) {}
    ~GuestGuard() { m_->UnpinGuest(slot_); }
    GuestGuard(const GuestGuard&) = delete;
    GuestGuard& operator=(const GuestGuard&) = delete;
    int slot() const { return slot_; }

   private:
    EpochManager* m_;
    int slot_;
  };

  // ---- reclaim side (cleaner path) ----

  // Schedules `fn` to run once every reader active now has moved on (two
  // epoch advances). Callable from any thread.
  void Defer(std::function<void()> fn);

  // Advances the global epoch by one if no pinned slot lags behind it.
  bool TryAdvance();

  // Attempts up to two epoch advances, then runs every deferred function
  // that has become safe. Returns the number of functions run. Callable
  // concurrently from multiple cleaner threads.
  size_t ReclaimDeferred();

  // Best-effort drain for shutdown paths: repeatedly reclaims until the
  // deferred queue empties or `max_rounds` passes make no progress (a
  // reader still pinned). Never blocks indefinitely.
  size_t DrainDeferred(int max_rounds = 8);

  // ---- introspection ----

  uint64_t current_epoch() const {
    return global_.load(std::memory_order_acquire);
  }
  // Epoch a slot is pinned at, or kIdle.
  uint64_t SlotEpoch(int slot) const {
    return slots_[slot].epoch.load(std::memory_order_acquire);
  }
  bool AnyPinned() const;
  size_t deferred_pending() const;
  uint64_t advances() const {
    // relaxed: monotonic stat counter, no ordering required.
    return advances_.load(std::memory_order_relaxed);
  }
  uint64_t deferred_frees() const {
    // relaxed: monotonic stat counter, no ordering required.
    return deferred_frees_.load(std::memory_order_relaxed);
  }
  uint64_t deferred_hwm() const {
    // relaxed: monotonic stat counter, no ordering required.
    return deferred_hwm_.load(std::memory_order_relaxed);
  }
  int owned_slots() const { return owned_slots_; }
  int total_slots() const { return total_slots_; }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  struct DeferredOp {
    uint64_t epoch;
    std::function<void()> fn;
  };

  int owned_slots_;
  int total_slots_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<uint64_t> global_{1};

  // Reclaim side is cold: a mutex-protected FIFO is plenty.
  mutable Mutex deferred_mu_;
  std::deque<DeferredOp> deferred_ GUARDED_BY(deferred_mu_);

  std::atomic<uint64_t> advances_{0};
  std::atomic<uint64_t> deferred_frees_{0};
  std::atomic<uint64_t> deferred_hwm_{0};
  pm::PmStats* stats_;
};

}  // namespace common
}  // namespace flatstore

#endif  // FLATSTORE_COMMON_EPOCH_H_
