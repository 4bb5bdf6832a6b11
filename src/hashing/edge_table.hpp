// EdgeTable — an open-addressing hash table of packed-key edge weights.
//
// It stores ((source vertex, owned vertex), w) triples keyed by a packed
// id pair, with insert-or-accumulate semantics and linear probing: the
// paper's In_Table/Out_Table layout (Algorithms 3 and 5). The engine keeps
// both tables as hashing::RowStore rows instead (DESIGN.md decision 1);
// EdgeTable remains the hashed reference the row store is tested against
// and perfbench's hashing probes measure. Every entry carries a
// contribution count: retract() removes one, and at zero the entry is
// deleted by backward-shifting the probe chain (no tombstones). Counting
// contributions, not testing the weight against zero, keeps emptiness
// exact whatever floating-point dust the weight holds.
//
// The inverse load factor is configurable; the paper settles on 1/4 as the
// speed/memory compromise (Fig. 6d) and we default to the same.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/histogram.hpp"
#include "common/types.hpp"
#include "hashing/hash_fns.hpp"

namespace plv::hashing {

/// Probe-chain occupancy statistics, for the Fig. 6-style analyses.
struct TableStats {
  std::uint64_t entries{0};
  std::uint64_t capacity{0};
  double avg_probe_length{0.0};  // mean probes per occupied entry (1 = no collision)
  std::uint64_t max_probe_length{0};
};

class EdgeTable {
 public:
  /// `expected_entries` pre-sizes the table so that the load factor stays at
  /// or below `max_load` (entries/capacity) without growing.
  explicit EdgeTable(std::size_t expected_entries = 0, double max_load = 0.25,
                     HashKind hash = HashKind::kFibonacci)
      : hash_(hash), max_load_(clamp_load(max_load)) {
    reserve(expected_entries);
  }

  /// Inserts `key` with weight `w`, or adds `w` to the existing entry,
  /// recording one contribution either way. Returns true if a new entry
  /// was created.
  bool insert_or_add(std::uint64_t key, weight_t w) {
    assert(key != kEmptyKey);
    if ((size_ + 1) > max_entries_) grow();
    std::size_t idx = slot_of(key);
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.key == kEmptyKey) {
        slot.key = key;
        slot.weight = w;
        slot.count = 1;
        ++size_;
        return true;
      }
      if (slot.key == key) {
        slot.weight += w;
        ++slot.count;
        return false;
      }
      idx = (idx + 1) & mask_;
    }
  }

  /// Removes one contribution of weight `w` from `key`: the inverse of a
  /// prior insert_or_add. When the last contribution is retracted the
  /// entry is erased (backward shift, no tombstone) regardless of any
  /// floating-point dust left in the weight. Returns true if the entry
  /// was erased. Retracting a key that is not present is a caller bug
  /// (asserted in debug, no-op in release).
  bool retract(std::uint64_t key, weight_t w) {
    assert(key != kEmptyKey);
    if (slots_.empty()) {
      assert(false && "retract on empty table");
      return false;
    }
    std::size_t idx = slot_of(key);
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.key == key) break;
      if (slot.key == kEmptyKey) {
        assert(false && "retract of absent key");
        return false;
      }
      idx = (idx + 1) & mask_;
    }
    Slot& slot = slots_[idx];
    assert(slot.count > 0);
    slot.weight -= w;
    if (--slot.count > 0) return false;
    erase_at(idx);
    --size_;
    return true;
  }

  /// Contributions currently accumulated into `key` (0 if absent).
  [[nodiscard]] std::uint32_t contributions(std::uint64_t key) const noexcept {
    if (slots_.empty()) return 0;
    std::size_t idx = slot_of(key);
    for (;;) {
      const Slot& slot = slots_[idx];
      if (slot.key == key) return slot.count;
      if (slot.key == kEmptyKey) return 0;
      idx = (idx + 1) & mask_;
    }
  }

  /// Weight stored under `key`, if present.
  [[nodiscard]] std::optional<weight_t> find(std::uint64_t key) const noexcept {
    if (slots_.empty()) return std::nullopt;
    std::size_t idx = slot_of(key);
    for (;;) {
      const Slot& slot = slots_[idx];
      if (slot.key == key) return slot.weight;
      if (slot.key == kEmptyKey) return std::nullopt;
      idx = (idx + 1) & mask_;
    }
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return find(key).has_value();
  }

  /// Visits every occupied entry as (key, weight). Order is the probe
  /// order, which is deterministic for a fixed insertion multiset because
  /// insert-or-add is commutative in its effect on final contents —
  /// callers must still not depend on it semantically.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.weight);
    }
  }

  /// Removes all entries, keeping the current capacity.
  void clear() noexcept {
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

  /// Ensures capacity for `expected_entries` at the configured load factor.
  void reserve(std::size_t expected_entries) {
    const std::size_t needed = required_capacity(expected_entries);
    if (needed > slots_.size()) rehash(needed);
  }

  /// Removes all entries and sizes the table for `expected_entries`: the
  /// current slot array survives (cleared) while reset_keeps() admits its
  /// capacity, and is otherwise dropped unwalked for a fresh one of the
  /// capacity reserve() would pick. Unlike clear(), the capacity tracks
  /// what is about to be stored, not the largest thing ever stored.
  void reset(std::size_t expected_entries) {
    const std::size_t target = required_capacity(expected_entries);
    if (reset_keeps(slots_.size(), target)) return clear();
    allocate(target);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] double load_factor() const noexcept {
    return slots_.empty() ? 0.0 : static_cast<double>(size_) / static_cast<double>(slots_.size());
  }
  [[nodiscard]] HashKind hash_kind() const noexcept { return hash_; }

  /// Sum of all stored weights (used by conservation-law tests).
  [[nodiscard]] weight_t total_weight() const noexcept {
    weight_t sum = 0;
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) sum += slot.weight;
    }
    return sum;
  }

  /// Probe-length statistics over current contents.
  [[nodiscard]] TableStats stats() const {
    TableStats st;
    st.entries = size_;
    st.capacity = slots_.size();
    if (size_ == 0 || slots_.empty()) return st;
    std::uint64_t total_probes = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].key == kEmptyKey) continue;
      const std::size_t home = slot_of(slots_[i].key);
      const std::uint64_t probes = 1 + ((i + slots_.size() - home) & mask_);
      total_probes += probes;
      st.max_probe_length = std::max(st.max_probe_length, probes);
    }
    st.avg_probe_length = static_cast<double>(total_probes) / static_cast<double>(size_);
    return st;
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~0ULL;

  struct Slot {
    std::uint64_t key{kEmptyKey};
    weight_t weight{0};
    std::uint32_t count{0};  // contributions accumulated into this entry
  };

  /// Deletes the entry at `idx` by backward-shifting the rest of its
  /// probe chain into the hole — the tombstone-free erase linear probing
  /// admits. An entry at `next` may move into the hole iff the hole lies
  /// cyclically within [home(next), next).
  void erase_at(std::size_t idx) noexcept {
    std::size_t hole = idx;
    std::size_t next = (hole + 1) & mask_;
    while (slots_[next].key != kEmptyKey) {
      const std::size_t home = slot_of(slots_[next].key);
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
      next = (next + 1) & mask_;
    }
    slots_[hole] = Slot{};
  }

  static double clamp_load(double load) noexcept {
    if (load <= 0.0) return 0.25;
    return load > 0.9 ? 0.9 : load;
  }

  [[nodiscard]] std::size_t required_capacity(std::size_t entries) const noexcept {
    if (entries == 0) return 0;
    const auto target = static_cast<std::size_t>(static_cast<double>(entries) / max_load_) + 1;
    return static_cast<std::size_t>(next_pow2(target));
  }

  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(apply_hash(hash_, key, slots_.size()));
  }

  void grow() { rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  /// Replaces the slot array with an empty one of `capacity` slots (0
  /// releases the storage; the next insert grows it).
  void allocate(std::size_t capacity) {
    assert(capacity == 0 || is_pow2(capacity));
    slots_ = std::vector<Slot>(capacity);
    mask_ = capacity == 0 ? 0 : capacity - 1;
    max_entries_ = static_cast<std::size_t>(max_load_ * static_cast<double>(capacity));
    if (max_entries_ == 0 && capacity > 0) max_entries_ = 1;
    size_ = 0;
  }

  void rehash(std::size_t new_capacity) {
    assert(is_pow2(new_capacity));
    std::vector<Slot> old = std::move(slots_);
    allocate(new_capacity);
    for (const Slot& slot : old) {
      if (slot.key != kEmptyKey) place(slot);
    }
  }

  /// Reinserts a fully-formed slot during rehash (preserves the
  /// contribution count, which insert_or_add would reset to 1).
  void place(const Slot& moved) {
    std::size_t idx = slot_of(moved.key);
    while (slots_[idx].key != kEmptyKey) idx = (idx + 1) & mask_;
    slots_[idx] = moved;
    ++size_;
  }

  HashKind hash_;
  double max_load_;
  std::vector<Slot> slots_;
  std::size_t mask_{0};
  std::size_t size_{0};
  std::size_t max_entries_{0};
};

}  // namespace plv::hashing
