// Small open-addressed hash table: uint64 key -> V, linear probing with
// backward-shift deletion.
//
// Built for the serving cores' in-flight key tables, which
// std::unordered_map served poorly: every insert/erase cycle heap-
// allocated and freed a node on the hot path. This table stores entries
// inline in one flat array, and backward-shift deletion (instead of
// tombstones) means the load factor never degrades — so a table
// constructed for its worst-case population performs ZERO heap
// allocations in steady state, no matter how many insert/erase cycles
// run through it.
//
// Not thread-safe; each serving core owns its own instance. V must be
// trivially copyable (entries relocate during backward-shift deletion).

#ifndef FLATSTORE_COMMON_OPEN_TABLE_H_
#define FLATSTORE_COMMON_OPEN_TABLE_H_

#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_annotations.h"

namespace flatstore {
namespace common {

template <typename V>
class OpenTable {
  static_assert(std::is_trivially_copyable_v<V>,
                "backward-shift deletion relocates entries by copy");

 public:
  explicit OpenTable(size_t min_capacity = 16) { Rebuild(min_capacity); }

  OpenTable(const OpenTable&) = delete;
  OpenTable& operator=(const OpenTable&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return cap_; }

  // Pointer to the value of `key`, or nullptr.
  FS_HOT V* Find(uint64_t key) {
    const size_t i = FindSlot(key);
    return slots_[i].full ? &slots_[i].value : nullptr;
  }
  const V* Find(uint64_t key) const {
    return const_cast<OpenTable*>(this)->Find(key);
  }

  FS_HOT bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  // Value of `key`, default-constructing it if absent (the analogue of
  // unordered_map::operator[]).
  FS_HOT V& GetOrInsert(uint64_t key) {
    size_t i = FindSlot(key);
    if (slots_[i].full) return slots_[i].value;
    if ((size_ + 1) * 2 > cap_) {
      Rebuild(cap_ * 2);
      i = FindSlot(key);
    }
    slots_[i].full = true;
    slots_[i].key = key;
    slots_[i].value = V{};
    size_++;
    return slots_[i].value;
  }

  // Removes `key`; false if absent. Backward-shift deletion keeps probe
  // chains intact without tombstones.
  FS_HOT bool Erase(uint64_t key) {
    size_t i = FindSlot(key);
    if (!slots_[i].full) return false;
    size_--;
    size_t j = i;
    while (true) {
      slots_[i].full = false;
      while (true) {
        j = (j + 1) & mask_;
        if (!slots_[j].full) return true;
        const size_t home = Home(slots_[j].key);
        // slots_[j] may fill the hole at i unless its home lies
        // cyclically within (i, j] — moving it would break its chain.
        const bool home_in_range =
            (i <= j) ? (i < home && home <= j) : (i < home || home <= j);
        if (!home_in_range) break;
      }
      slots_[i] = slots_[j];
      i = j;
    }
  }

  // Visits every entry (unspecified order). `fn(key, value&)`.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < cap_; i++) {
      if (slots_[i].full) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    V value{};
    bool full = false;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>(HashKey(key, /*seed=*/0x7AB1E)) & mask_;
  }

  // First slot holding `key`, or the empty slot terminating its chain.
  size_t FindSlot(uint64_t key) const {
    size_t i = Home(key);
    while (slots_[i].full && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  void Rebuild(size_t min_capacity) {
    size_t cap = 16;
    while (cap < min_capacity) cap *= 2;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const size_t old_cap = cap_;
    slots_.reset(new Slot[cap]);
    cap_ = cap;
    mask_ = cap - 1;
    size_ = 0;
    if (old != nullptr) {
      for (size_t i = 0; i < old_cap; i++) {
        if (old[i].full) GetOrInsert(old[i].key) = old[i].value;
      }
    }
  }

  std::unique_ptr<Slot[]> slots_;
  size_t cap_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace common
}  // namespace flatstore

#endif  // FLATSTORE_COMMON_OPEN_TABLE_H_
