// Unit tests for FlatMap, the open-addressing scratch map behind the
// inner loop's hot-path state (Σtot cache, Σin pre-aggregation, community
// bookkeeping, reference counts).
#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.hpp"

namespace plv {
namespace {

TEST(FlatMap, RefDefaultConstructsOnFirstAccess) {
  FlatMap<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.ref(7), 0.0);
  m.ref(7) += 2.5;
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_DOUBLE_EQ(*m.find(7), 2.5);
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatMap, FindOnEmptyMapIsNull) {
  FlatMap<int> m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_FALSE(m.contains(123));
  EXPECT_FALSE(m.erase(123));
}

TEST(FlatMap, EraseBackwardShiftsProbeChains) {
  FlatMap<int> m;
  // Grow to a known capacity, then hammer keys into overlapping chains.
  m.reserve(64);
  const std::size_t cap = m.capacity();
  for (vid_t k = 0; k < 48; ++k) m.ref(k) = static_cast<int>(k) * 3;
  EXPECT_EQ(m.capacity(), cap);  // no rehash mid-test
  for (vid_t k = 0; k < 48; k += 2) EXPECT_TRUE(m.erase(k));
  EXPECT_EQ(m.size(), 24u);
  for (vid_t k = 0; k < 48; ++k) {
    if (k % 2 == 0) {
      EXPECT_FALSE(m.contains(k)) << k;
    } else {
      ASSERT_NE(m.find(k), nullptr) << k;
      EXPECT_EQ(*m.find(k), static_cast<int>(k) * 3);
    }
  }
}

TEST(FlatMap, ClearKeepsCapacity) {
  FlatMap<int> m(100);
  const std::size_t cap = m.capacity();
  for (vid_t k = 1; k <= 100; ++k) m.ref(k) = 1;
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_FALSE(m.contains(50));
}

// Capacity reserve() picks for `entries` on an empty map: reset()'s target.
std::size_t target_of(std::size_t entries) {
  FlatMap<int> m;
  m.reserve(entries);
  return m.capacity();
}

TEST(FlatMapReset, ShrinksAnOversizedMapToTarget) {
  FlatMap<int> m(10000);
  for (vid_t k = 1; k <= 5000; ++k) m.ref(k) = 1;
  ASSERT_GT(m.capacity(), hashing::kResetSlack * target_of(100));
  m.reset(100);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), target_of(100));
  EXPECT_FALSE(m.contains(7));
}

TEST(FlatMapReset, KeepsCapacityInsideTheBand) {
  FlatMap<int> m(1000);
  const std::size_t cap = m.capacity();
  for (vid_t k = 1; k <= 1000; ++k) m.ref(k) = 1;
  ASSERT_EQ(hashing::kResetSlack * target_of(100), cap);  // the band's upper edge
  m.reset(100);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  m.reset(1000);  // the lower edge
  EXPECT_EQ(m.capacity(), cap);
  m.reset(50);  // one power of two past the upper edge
  EXPECT_EQ(m.capacity(), target_of(50));
}

TEST(FlatMapReset, GrowsAnUndersizedMap) {
  FlatMap<int> m(10);
  m.ref(3) = 1;
  m.reset(1000);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), target_of(1000));
}

TEST(FlatMapReset, CorrectAfterShrink) {
  FlatMap<int> m(20000);
  for (vid_t k = 1; k <= 10000; ++k) m.ref(k * 3) = 7;
  m.reset(20);
  ASSERT_EQ(m.capacity(), target_of(20));
  // Insert past the reset's estimate (forcing growth), then erase a third.
  std::unordered_map<vid_t, int> ref;
  Xoshiro256 rng(37);
  for (int i = 0; i < 3000; ++i) {
    const auto k = static_cast<vid_t>(rng.next_below(500));
    m.ref(k) += 1;
    ref[k] += 1;
  }
  for (vid_t k = 0; k < 500; k += 3) {
    EXPECT_EQ(m.erase(k), ref.erase(k) == 1) << k;
  }
  EXPECT_EQ(m.size(), ref.size());
  std::unordered_map<vid_t, int> seen;
  m.for_each([&](vid_t k, int v) { seen[k] += v; });
  EXPECT_EQ(seen, ref);
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), v);
  }
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce) {
  FlatMap<int> m;
  int expected_sum = 0;
  for (vid_t k = 10; k < 200; k += 7) {
    m.ref(k) = static_cast<int>(k);
    expected_sum += static_cast<int>(k);
  }
  int sum = 0;
  std::size_t visits = 0;
  m.for_each([&](vid_t k, int& v) {
    EXPECT_EQ(static_cast<int>(k), v);
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, m.size());
  EXPECT_EQ(sum, expected_sum);
}

TEST(FlatMap, GrowsFromEmptyAndPreservesContents) {
  FlatMap<vid_t> m;  // no reserve: every growth path exercised
  for (vid_t k = 0; k < 10000; ++k) m.ref(k * 7 + 1) = k;
  EXPECT_EQ(m.size(), 10000u);
  for (vid_t k = 0; k < 10000; ++k) {
    ASSERT_NE(m.find(k * 7 + 1), nullptr) << k;
    EXPECT_EQ(*m.find(k * 7 + 1), k);
  }
}

TEST(FlatMap, MatchesReferenceMapUnderRandomChurn) {
  FlatMap<int> m;
  std::unordered_map<vid_t, int> ref;
  Xoshiro256 rng(99);
  for (int i = 0; i < 50000; ++i) {
    const vid_t key = static_cast<vid_t>(rng.next_below(500));
    switch (rng.next_below(3)) {
      case 0:
        m.ref(key) += 1;
        ref[key] += 1;
        break;
      case 1: {
        const bool erased = m.erase(key);
        EXPECT_EQ(erased, ref.erase(key) > 0);
        break;
      }
      default: {
        const int* found = m.find(key);
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  m.for_each([&](vid_t k, int& v) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << k;
    EXPECT_EQ(it->second, v);
  });
}

}  // namespace
}  // namespace plv
