// RowStore — contiguous per-vertex rows, sorted by key, in one shared slab.
//
// The engine keeps both of a level's tables in it. The In_Table is the
// level's adjacency: row l holds vertex l's (neighbor, contribution count,
// weight) entries. The Out_Table holds vertex l's (community, count,
// weight) entries. Row l starts at start[l] and holds at most
// start[l+1] - start[l] entries; overflow is a caller bug and throws
// std::logic_error (checked in release builds too).
//
// build() makes the adjacency: it counts each row's contributions, lays the
// rows out, appends, seal()s and compact()s, so the slab ends with one slot
// per distinct entry. The Out_Table takes the adjacency's layout: a vertex
// receives one record per in-edge and a retraction always precedes its
// assertion, so its row's counts never sum past its In_Table degree.
//
// A full rebuild appends records in arrival order and seal()s: each row is
// stable-sorted by key and equal keys combine left to right, so every
// weight is bitwise the sum a hashed table accumulating the same records
// holds. A patch (add / retract) is a binary search plus a shift within the
// row; an entry leaves when its count reaches zero, whatever floating-point
// dust its weight still holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace plv::hashing {

class RowStore {
 public:
  struct Entry {
    vid_t c;              // the key: a community, or a neighbor in the adjacency
    std::uint32_t count;  // contributions accumulated into this entry
    weight_t w;
  };

  /// Lays empty rows out over `start` (non-decreasing, from 0, rows + 1).
  void reset(std::vector<std::size_t> start) {
    start_ = std::move(start);
    const std::size_t rows = start_.empty() ? 0 : start_.size() - 1;
    len_.assign(rows, 0);
    slab_.resize(start_.empty() ? 0 : start_.back());
    size_ = 0;
  }

  /// Empties every row, keeping the layout (the start of a full rebuild).
  void clear() noexcept {
    std::fill(len_.begin(), len_.end(), 0u);
    size_ = 0;
  }

  /// Full rebuild: appends one contribution as is; seal() before lookups.
  void append(std::size_t row, vid_t c, weight_t w) {
    std::uint32_t& len = len_[row];
    if (len == cap(row)) overflow(row);
    slab_[start_[row] + len++] = Entry{c, 1, w};
  }

  /// Ends a full rebuild: stable sort by key, combine in order.
  void seal() {
    size_ = 0;
    for (std::size_t row = 0; row < len_.size(); ++row) {
      Entry* first = slab_.data() + start_[row];
      Entry* last = first + len_[row];
      if (last - first > 16) {
        std::stable_sort(first, last, [](const Entry& a, const Entry& b) { return a.c < b.c; });
      } else {
        for (Entry* i = first + 1; i < last; ++i) {  // insertion sort: stable
          const Entry e = *i;
          Entry* j = i;
          for (; j > first && (j - 1)->c > e.c; --j) *j = *(j - 1);
          *j = e;
        }
      }
      Entry* out = first;
      for (Entry* i = first; i < last; ++i) {
        if (out != first && (out - 1)->c == i->c) {
          (out - 1)->w += i->w;
          ++(out - 1)->count;
        } else {
          *out++ = *i;
        }
      }
      len_[row] = static_cast<std::uint32_t>(out - first);
      size_ += len_[row];
    }
  }

  /// Builds `rows` rows from scratch out of the (row, key, w) contributions
  /// `emit(sink)` passes to `sink`. It is called twice and must replay the
  /// same sequence: once to count each row, once to append.
  template <typename Emit>
  void build(std::size_t rows, const Emit& emit) {
    std::vector<std::size_t> start(rows + 1, 0);
    emit([&](std::size_t row, vid_t, weight_t) { ++start[row + 1]; });
    std::partial_sum(start.begin(), start.end(), start.begin());
    reset(std::move(start));
    emit([&](std::size_t row, vid_t c, weight_t w) { append(row, c, w); });
    seal();
    compact();
  }

  /// Adds one contribution to (row, c); true if the entry is new.
  bool add(std::size_t row, vid_t c, weight_t w) {
    Entry* it = slab_.data() + lower_bound(row, c);
    Entry* end = slab_.data() + start_[row] + len_[row];
    if (it != end && it->c == c) {
      it->w += w;
      ++it->count;
      return false;
    }
    if (len_[row] == cap(row)) overflow(row);
    std::move_backward(it, end, end + 1);
    *it = Entry{c, 1, w};
    ++len_[row];
    ++size_;
    return true;
  }

  /// Removes one contribution from (row, c), the inverse of add(); true if
  /// it was the last and the entry left the row. An absent entry throws.
  bool retract(std::size_t row, vid_t c, weight_t w) {
    Entry* it = slab_.data() + lower_bound(row, c);
    Entry* end = slab_.data() + start_[row] + len_[row];
    if (it == end || it->c != c) {
      throw std::logic_error("RowStore: retract of community " + std::to_string(c) +
                             " absent from the row of vertex " + std::to_string(row));
    }
    it->w -= w;
    if (--it->count > 0) return false;
    std::move(it + 1, end, it);
    --len_[row];
    --size_;
    return true;
  }

  /// The entry (row, c), or nullptr when absent.
  [[nodiscard]] const Entry* find(std::size_t row, vid_t c) const noexcept {
    const std::size_t i = lower_bound(row, c);
    return i != start_[row] + len_[row] && slab_[i].c == c ? &slab_[i] : nullptr;
  }

  /// Weight of (row, c), 0 when absent.
  [[nodiscard]] weight_t weight(std::size_t row, vid_t c) const noexcept {
    const Entry* e = find(row, c);
    return e == nullptr ? 0.0 : e->w;
  }

  [[nodiscard]] std::span<const Entry> row(std::size_t r) const noexcept {
    return {slab_.data() + start_[r], len_[r]};
  }

  /// The row offsets (rows + 1 of them), the layout reset() takes.
  [[nodiscard]] const std::vector<std::size_t>& layout() const noexcept { return start_; }
  [[nodiscard]] std::size_t rows() const noexcept { return len_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slab_.size(); }

 private:
  /// Packs the rows back to back, so each row's capacity is its length and
  /// the slab holds size() entries.
  void compact() {
    std::size_t at = 0;
    for (std::size_t row = 0; row < len_.size(); ++row) {
      const Entry* first = slab_.data() + start_[row];
      if (at != start_[row]) std::copy(first, first + len_[row], slab_.data() + at);
      start_[row] = at;
      at += len_[row];
    }
    start_.back() = at;
    slab_.resize(at);
    slab_.shrink_to_fit();
  }

  [[nodiscard]] std::size_t cap(std::size_t row) const noexcept {
    return start_[row + 1] - start_[row];
  }

  /// Slab index of the first entry of `row` whose key is >= c.
  [[nodiscard]] std::size_t lower_bound(std::size_t row, vid_t c) const noexcept {
    const Entry* first = slab_.data() + start_[row];
    const Entry* it = std::lower_bound(first, first + len_[row], c,
                                       [](const Entry& e, vid_t key) { return e.c < key; });
    return static_cast<std::size_t>(it - slab_.data());
  }

  [[noreturn]] void overflow(std::size_t row) const {
    throw std::logic_error("RowStore: the row of vertex " + std::to_string(row) +
                           " would exceed its capacity of " + std::to_string(cap(row)) +
                           " entries");
  }

  std::vector<std::size_t> start_;
  std::vector<std::uint32_t> len_;
  std::vector<Entry> slab_;
  std::size_t size_{0};
};

}  // namespace plv::hashing
