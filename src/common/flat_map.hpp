// FlatMap — open-addressing hash map keyed by vertex/community ids.
//
// The inner loop's per-iteration scratch state (Σtot cache, Σin
// pre-aggregation, community bookkeeping, reference counts) used to live
// in node-based std::unordered_map/set, whose per-find pointer chase and
// per-insert allocation dominate the hot path once the messaging layer is
// zero-copy. FlatMap is the flat replacement: one contiguous slot array,
// linear probing, Fibonacci hashing (the paper's Eq. 6 choice,
// hashing/hash_fns.hpp), tombstone-free backward-shift deletion — the same
// layout discipline as hashing::EdgeTable, specialized for 32-bit keys.
//
// kInvalidVid is reserved as the empty sentinel; real vertex/community ids
// never take that value (common/types.hpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "hashing/hash_fns.hpp"

namespace plv {

template <typename Value>
class FlatMap {
 public:
  /// Pre-sizes so `expected` entries fit without growing.
  explicit FlatMap(std::size_t expected = 0) { reserve(expected); }

  /// Value slot for `key`, default-constructed on first access (the
  /// operator[] idiom).
  [[nodiscard]] Value& ref(vid_t key) {
    assert(key != kInvalidVid);
    if (size_ + 1 > max_entries_) grow();
    std::size_t idx = slot_of(key);
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.key == key) return slot.value;
      if (slot.key == kInvalidVid) {
        slot.key = key;
        slot.value = Value{};
        ++size_;
        return slot.value;
      }
      idx = (idx + 1) & mask_;
    }
  }

  [[nodiscard]] Value* find(vid_t key) noexcept {
    if (slots_.empty()) return nullptr;
    std::size_t idx = slot_of(key);
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.key == key) return &slot.value;
      if (slot.key == kInvalidVid) return nullptr;
      idx = (idx + 1) & mask_;
    }
  }

  [[nodiscard]] const Value* find(vid_t key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  [[nodiscard]] bool contains(vid_t key) const noexcept { return find(key) != nullptr; }

  /// Removes `key` by backward-shifting the probe chain (no tombstones, so
  /// load stays honest and scans stay dense). Returns false if absent.
  bool erase(vid_t key) noexcept {
    if (slots_.empty()) return false;
    std::size_t idx = slot_of(key);
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.key == key) break;
      if (slot.key == kInvalidVid) return false;
      idx = (idx + 1) & mask_;
    }
    std::size_t hole = idx;
    std::size_t next = (hole + 1) & mask_;
    while (slots_[next].key != kInvalidVid) {
      const std::size_t home = slot_of(slots_[next].key);
      // The entry at `next` may fill `hole` iff hole lies cyclically
      // within [home, next).
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
      next = (next + 1) & mask_;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Visits every entry as (key, Value&). Order is the probe order; callers
  /// must not depend on it semantically.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.key != kInvalidVid) fn(slot.key, slot.value);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kInvalidVid) fn(slot.key, slot.value);
    }
  }

  /// Removes all entries, keeping the capacity (cheap reuse across
  /// iterations).
  void clear() noexcept {
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

  /// Ensures capacity for `expected` entries at the fixed 1/2 load factor.
  void reserve(std::size_t expected) {
    const std::size_t target = capacity_for(expected);
    if (target > slots_.size()) rehash(target);
  }

  /// Removes all entries and sizes the map for `expected` entries: the
  /// slot array survives (cleared) while hashing::reset_keeps() admits its
  /// capacity, and is otherwise dropped unwalked for a fresh one of the
  /// capacity reserve() would pick.
  void reset(std::size_t expected) {
    const std::size_t target = capacity_for(expected);
    if (hashing::reset_keeps(slots_.size(), target)) return clear();
    allocate(target);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    vid_t key{kInvalidVid};
    Value value{};
  };

  [[nodiscard]] std::size_t slot_of(vid_t key) const noexcept {
    return static_cast<std::size_t>(
        hashing::fibonacci_hash(static_cast<std::uint64_t>(key), slots_.size()));
  }

  void grow() { rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  [[nodiscard]] static std::size_t capacity_for(std::size_t expected) noexcept {
    return expected == 0 ? 0 : static_cast<std::size_t>(next_pow2(expected * 2 + 1));
  }

  /// Replaces the slot array with an empty one of `capacity` slots.
  void allocate(std::size_t capacity) {
    assert(capacity == 0 || is_pow2(capacity));
    slots_ = std::vector<Slot>(capacity);
    mask_ = capacity == 0 ? 0 : capacity - 1;
    max_entries_ = capacity / 2;
    size_ = 0;
  }

  void rehash(std::size_t new_capacity) {
    assert(is_pow2(new_capacity));
    std::vector<Slot> old = std::move(slots_);
    allocate(new_capacity);
    for (const Slot& slot : old) {
      if (slot.key != kInvalidVid) ref(slot.key) = slot.value;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  std::size_t size_{0};
  std::size_t max_entries_{0};
};

}  // namespace plv
