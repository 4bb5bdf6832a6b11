#include "hashing/edge_table.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/random.hpp"

namespace plv::hashing {
namespace {

TEST(EdgeTable, InsertAndFind) {
  EdgeTable t;
  EXPECT_TRUE(t.insert_or_add(pack_key(1, 2), 3.0));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.find(pack_key(1, 2)).value(), 3.0);
  EXPECT_FALSE(t.find(pack_key(2, 1)).has_value());
}

TEST(EdgeTable, InsertOrAddAccumulates) {
  EdgeTable t;
  EXPECT_TRUE(t.insert_or_add(pack_key(7, 9), 1.5));
  EXPECT_FALSE(t.insert_or_add(pack_key(7, 9), 2.5));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.find(pack_key(7, 9)).value(), 4.0);
}

TEST(EdgeTable, EmptyTableFindsNothing) {
  EdgeTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.find(42).has_value());
  EXPECT_FALSE(t.contains(42));
}

TEST(EdgeTable, ClearKeepsCapacity) {
  EdgeTable t(100);
  const auto cap = t.capacity();
  for (std::uint64_t i = 0; i < 100; ++i) t.insert_or_add(i, 1.0);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap);
  EXPECT_FALSE(t.contains(5));
}

// Capacity reserve() picks for `entries` on an empty table: reset()'s target.
std::size_t target_of(std::size_t entries) {
  EdgeTable t;
  t.reserve(entries);
  return t.capacity();
}

TEST(EdgeTableReset, ShrinksAnOversizedTableToTarget) {
  EdgeTable t(10000);
  for (std::uint64_t i = 0; i < 5000; ++i) t.insert_or_add(i, 1.0);
  ASSERT_GT(t.capacity(), kResetSlack * target_of(100));
  t.reset(100);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), target_of(100));
  EXPECT_FALSE(t.contains(7));
}

TEST(EdgeTableReset, KeepsCapacityInsideTheBand) {
  EdgeTable t(1000);
  const std::size_t cap = t.capacity();
  for (std::uint64_t i = 0; i < 1000; ++i) t.insert_or_add(i, 1.0);
  ASSERT_EQ(kResetSlack * target_of(125), cap);  // the band's upper edge
  t.reset(125);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), cap);
  t.reset(1000);  // the lower edge
  EXPECT_EQ(t.capacity(), cap);
  t.reset(62);  // one power of two past the upper edge
  EXPECT_EQ(t.capacity(), target_of(62));
}

TEST(EdgeTableReset, GrowsAnUndersizedTable) {
  EdgeTable t(10);
  t.insert_or_add(3, 1.0);
  t.reset(1000);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), target_of(1000));
}

TEST(EdgeTableReset, ZeroReleasesStorageAndStaysUsable) {
  EdgeTable t(100);
  t.insert_or_add(1, 1.0);
  t.reset(0);
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_FALSE(t.contains(1));
  EXPECT_TRUE(t.insert_or_add(1, 2.0));
  EXPECT_DOUBLE_EQ(t.find(1).value(), 2.0);
}

TEST(EdgeTableReset, ContributionCountsStartAtZero) {
  for (const std::size_t expected : {std::size_t{64}, std::size_t{4}}) {  // kept, shrunk
    EdgeTable t(64);
    for (int i = 0; i < 3; ++i) t.insert_or_add(pack_key(1, 2), 1.0);
    ASSERT_EQ(t.contributions(pack_key(1, 2)), 3u);
    t.reset(expected);
    EXPECT_EQ(t.contributions(pack_key(1, 2)), 0u);
    EXPECT_TRUE(t.insert_or_add(pack_key(1, 2), 1.0));
    EXPECT_EQ(t.contributions(pack_key(1, 2)), 1u);
    EXPECT_TRUE(t.retract(pack_key(1, 2), 1.0));  // one contribution, not four
    EXPECT_TRUE(t.empty());
  }
}

TEST(EdgeTableReset, CorrectAfterShrink) {
  EdgeTable t(20000);
  Xoshiro256 rng(31);
  for (int i = 0; i < 10000; ++i) t.insert_or_add(rng.next_below(50000), 1.0);
  t.reset(50);
  ASSERT_EQ(t.capacity(), target_of(50));
  // Insert past the reset's estimate (forcing growth), then retract half.
  std::map<std::uint64_t, std::pair<weight_t, std::uint32_t>> ref;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.next_below(400);
    const weight_t w = static_cast<weight_t>(rng.next_below(4)) + 1.0;
    t.insert_or_add(key, w);
    ref[key].first += w;
    ++ref[key].second;
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.next_below(400);
    auto it = ref.find(key);
    if (it == ref.end()) continue;
    const weight_t w = it->second.first / it->second.second;
    const bool erased = t.retract(key, w);
    it->second.first -= w;
    EXPECT_EQ(erased, --it->second.second == 0);
    if (it->second.second == 0) ref.erase(it);
  }
  EXPECT_EQ(t.size(), ref.size());
  std::map<std::uint64_t, weight_t> seen;
  t.for_each([&](std::uint64_t key, weight_t w) { seen[key] += w; });
  ASSERT_EQ(seen.size(), ref.size());
  for (const auto& [key, entry] : ref) {
    ASSERT_TRUE(t.find(key).has_value()) << key;
    EXPECT_NEAR(t.find(key).value(), entry.first, 1e-9);
    EXPECT_NEAR(seen[key], entry.first, 1e-9);
    EXPECT_EQ(t.contributions(key), entry.second);
  }
}

TEST(EdgeTable, GrowsBeyondInitialReserve) {
  EdgeTable t(4);
  for (std::uint64_t i = 0; i < 10000; ++i) t.insert_or_add(i * 7 + 1, 1.0);
  EXPECT_EQ(t.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t.contains(i * 7 + 1)) << i;
  }
}

TEST(EdgeTable, RespectsConfiguredLoadFactor) {
  EdgeTable t(0, 0.125);
  for (std::uint64_t i = 1; i <= 1000; ++i) t.insert_or_add(i, 1.0);
  EXPECT_LE(t.load_factor(), 0.125 + 1e-9);
}

TEST(EdgeTable, TotalWeightSumsEverything) {
  EdgeTable t;
  t.insert_or_add(1, 1.0);
  t.insert_or_add(2, 2.0);
  t.insert_or_add(1, 3.0);
  EXPECT_DOUBLE_EQ(t.total_weight(), 6.0);
}

TEST(EdgeTable, ForEachVisitsAllEntriesOnce) {
  EdgeTable t;
  std::map<std::uint64_t, weight_t> expected;
  Xoshiro256 rng(17);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next_below(2000);  // force duplicates
    expected[key] += 1.0;
    t.insert_or_add(key, 1.0);
  }
  std::map<std::uint64_t, weight_t> seen;
  t.for_each([&](std::uint64_t key, weight_t w) { seen[key] += w; });
  EXPECT_EQ(seen, expected);
}

TEST(EdgeTable, MatchesReferenceMapUnderRandomWorkload) {
  EdgeTable t;
  std::map<std::uint64_t, weight_t> ref;
  Xoshiro256 rng(23);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = pack_key(static_cast<vid_t>(rng.next_below(300)),
                                       static_cast<vid_t>(rng.next_below(300)));
    const weight_t w = static_cast<weight_t>(rng.next_below(10)) + 0.5;
    t.insert_or_add(key, w);
    ref[key] += w;
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [key, w] : ref) {
    ASSERT_TRUE(t.find(key).has_value());
    EXPECT_DOUBLE_EQ(t.find(key).value(), w);
  }
}

TEST(EdgeTableRetract, RoundTripsOneContribution) {
  EdgeTable t;
  t.insert_or_add(pack_key(3, 4), 2.5);
  EXPECT_EQ(t.contributions(pack_key(3, 4)), 1u);
  EXPECT_TRUE(t.retract(pack_key(3, 4), 2.5));  // last contribution ⇒ erased
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(pack_key(3, 4)));
  EXPECT_EQ(t.contributions(pack_key(3, 4)), 0u);
}

TEST(EdgeTableRetract, ErasesOnZeroContributionsNotZeroWeight) {
  EdgeTable t;
  // Irrational-ish weights that leave floating-point dust when subtracted.
  t.insert_or_add(pack_key(1, 2), 0.1);
  t.insert_or_add(pack_key(1, 2), 0.2);
  EXPECT_EQ(t.contributions(pack_key(1, 2)), 2u);
  EXPECT_FALSE(t.retract(pack_key(1, 2), 0.2));  // one contribution left
  EXPECT_TRUE(t.contains(pack_key(1, 2)));
  // 0.1 + 0.2 - 0.2 != 0.1 exactly, but the entry survives on count alone.
  EXPECT_NEAR(t.find(pack_key(1, 2)).value(), 0.1, 1e-15);
  EXPECT_TRUE(t.retract(pack_key(1, 2), 0.1));  // count 0 ⇒ erased despite dust
  EXPECT_TRUE(t.empty());
}

TEST(EdgeTableRetract, BackwardShiftKeepsProbeChainsReachable) {
  // kConcatenated hashes key → key & mask, so keys ≡ mod 16 collide and
  // chains near slot 15 wrap to slot 0 — the hardest case for
  // tombstone-free deletion. The first insert grows the table to 16 slots.
  EdgeTable t(0, 0.9, HashKind::kConcatenated);
  const std::uint64_t keys[] = {14, 30, 46, 15, 31, 47};  // homes 14,14,14,15,15,15
  for (std::uint64_t k : keys) t.insert_or_add(k, static_cast<weight_t>(k));
  ASSERT_EQ(t.capacity(), 16u);
  // Deleting from the middle of the wrapped chain must backward-shift the
  // displaced tail (46, 15, 31, 47 sit in slots 0..3) into the hole.
  EXPECT_TRUE(t.retract(30, 30.0));
  for (std::uint64_t k : keys) {
    if (k == 30) {
      EXPECT_FALSE(t.contains(k));
    } else {
      ASSERT_TRUE(t.contains(k)) << k;
      EXPECT_DOUBLE_EQ(t.find(k).value(), static_cast<weight_t>(k));
    }
  }
  // Head deletion plus re-insertion reuses the compacted chain correctly.
  EXPECT_TRUE(t.retract(14, 14.0));
  EXPECT_TRUE(t.insert_or_add(62, 62.0));  // home 14 again
  for (std::uint64_t k : {46u, 15u, 31u, 47u, 62u}) {
    ASSERT_TRUE(t.contains(k)) << k;
  }
  EXPECT_EQ(t.size(), 5u);
}

TEST(EdgeTableRetract, RehashPreservesContributionCounts) {
  EdgeTable t(2);  // tiny: inserting below forces at least one grow/rehash
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t k = 1; k <= 500; ++k) t.insert_or_add(k, 1.0);
  }
  EXPECT_EQ(t.contributions(250), 3u);
  // Two retracts must leave the entry; the third erases it.
  EXPECT_FALSE(t.retract(250, 1.0));
  EXPECT_FALSE(t.retract(250, 1.0));
  EXPECT_TRUE(t.retract(250, 1.0));
  EXPECT_FALSE(t.contains(250));
}

TEST(EdgeTableRetract, MatchesReferenceModelUnderRandomChurn) {
  EdgeTable t;
  struct Ref {
    weight_t w{0};
    std::uint32_t count{0};
  };
  std::map<std::uint64_t, Ref> ref;
  Xoshiro256 rng(41);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t key = rng.next_below(400) + 1;
    const weight_t w = static_cast<weight_t>(rng.next_below(8)) + 1.0;
    auto it = ref.find(key);
    const bool do_retract = it != ref.end() && it->second.count > 0 && rng.next_below(2) == 0;
    if (do_retract) {
      const bool erased = t.retract(key, w);
      it->second.w -= w;
      if (--it->second.count == 0) {
        EXPECT_TRUE(erased);
        ref.erase(it);
      } else {
        EXPECT_FALSE(erased);
      }
    } else {
      t.insert_or_add(key, w);
      Ref& r = ref[key];
      r.w += w;
      ++r.count;
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [key, r] : ref) {
    ASSERT_TRUE(t.contains(key)) << key;
    EXPECT_EQ(t.contributions(key), r.count);
    EXPECT_NEAR(t.find(key).value(), r.w, 1e-9);
  }
}

class EdgeTableHashParam : public ::testing::TestWithParam<HashKind> {};

TEST_P(EdgeTableHashParam, CorrectUnderEveryHashFunction) {
  EdgeTable t(0, 0.25, GetParam());
  for (std::uint64_t i = 0; i < 4096; ++i) t.insert_or_add(i, 2.0);
  EXPECT_EQ(t.size(), 4096u);
  for (std::uint64_t i = 0; i < 4096; ++i) ASSERT_TRUE(t.contains(i));
  EXPECT_DOUBLE_EQ(t.total_weight(), 8192.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EdgeTableHashParam,
                         ::testing::Values(HashKind::kFibonacci,
                                           HashKind::kLinearCongruential,
                                           HashKind::kBitwise,
                                           HashKind::kConcatenated),
                         [](const auto& info) {
                           return std::string(hash_kind_name(info.param));
                         });

TEST(EdgeTableStats, ProbeLengthsReflectOccupancy) {
  EdgeTable t(1000, 0.25);
  for (std::uint64_t i = 0; i < 1000; ++i) t.insert_or_add(mix64(i), 1.0);
  const TableStats st = t.stats();
  EXPECT_EQ(st.entries, 1000u);
  EXPECT_GE(st.avg_probe_length, 1.0);
  EXPECT_GE(st.max_probe_length, 1u);
  EXPECT_LT(st.avg_probe_length, 2.0);  // 1/4 load ⇒ short chains
}

TEST(EdgeTableStats, EmptyTableStats) {
  EdgeTable t;
  const TableStats st = t.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_DOUBLE_EQ(st.avg_probe_length, 0.0);
}

TEST(EdgeTableStats, LowerLoadFactorShortensProbes) {
  EdgeTable dense(1 << 12, 0.9);
  EdgeTable sparse(1 << 12, 0.125);
  for (std::uint64_t i = 0; i < (1 << 12); ++i) {
    dense.insert_or_add(mix64(i) | 1, 1.0);
    sparse.insert_or_add(mix64(i) | 1, 1.0);
  }
  EXPECT_LE(sparse.stats().avg_probe_length, dense.stats().avg_probe_length);
}

}  // namespace
}  // namespace plv::hashing
