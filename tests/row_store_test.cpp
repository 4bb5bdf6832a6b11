// RowStore against EdgeTable: the row store replaces the hashed In_Table
// and Out_Table, so the same build, full rebuilds and retraction/assertion
// patches must leave both holding the same entries with bitwise-equal
// weights and equal contribution counts, while every row stays sorted.
#include "hashing/row_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "hashing/edge_table.hpp"

namespace plv::hashing {
namespace {

/// One in-edge of a row: its weight and the community it currently names.
struct InEdge {
  std::size_t row;
  vid_t c;
  weight_t w;
};

/// Compares every row with the table: sorted, same entries, same counts,
/// bitwise-same weights, same total size.
void expect_matches(const RowStore& rows, const EdgeTable& table) {
  std::size_t entries = 0;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const auto row = rows.row(r);
    entries += row.size();
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(row[i - 1].c, row[i].c) << "row " << r << " unsorted";
      }
      const std::uint64_t key = pack_key(static_cast<vid_t>(r), row[i].c);
      ASSERT_EQ(row[i].count, table.contributions(key)) << "row " << r;
      ASSERT_TRUE(table.find(key).has_value()) << "row " << r;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[i].w),
                std::bit_cast<std::uint64_t>(*table.find(key)))
          << "row " << r << " community " << row[i].c;
    }
  }
  ASSERT_EQ(entries, rows.size());
  ASSERT_EQ(rows.size(), table.size());
}

TEST(RowStore, MatchesEdgeTableUnderRebuildsAndPatches) {
  Xoshiro256 rng(20240611);
  constexpr vid_t kCommunities = 24;
  for (int trial = 0; trial < 20; ++trial) {
    // Rows of degree 0..12 plus one wide row, so seal() runs both its
    // short-row and its long-row sort.
    std::vector<std::size_t> start{0};
    std::vector<InEdge> edges;
    for (std::size_t r = 0; r < 60; ++r) {
      const std::size_t degree = r == 7 ? 48 : rng.next_below(13);
      for (std::size_t j = 0; j < degree; ++j) {
        // Non-dyadic weights, so summation order shows in the bits.
        edges.push_back(InEdge{r, static_cast<vid_t>(rng.next_below(kCommunities)),
                               0.1 + rng.next_double() * 2.7});
      }
      start.push_back(start.back() + degree);
    }
    // build(): counted, laid out, appended, sealed and compacted in one
    // call, so the slab holds exactly one slot per distinct entry.
    RowStore built;
    built.build(start.size() - 1, [&](auto&& sink) {
      for (const InEdge& e : edges) sink(e.row, e.c, e.w);
    });
    EdgeTable reference;
    for (const InEdge& e : edges) {
      reference.insert_or_add(pack_key(static_cast<vid_t>(e.row), e.c), e.w);
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches(built, reference));
    ASSERT_EQ(built.capacity(), built.size());
    ASSERT_EQ(built.layout().back(), built.size());
    for (std::size_t r = 0; r < built.rows(); ++r) {
      ASSERT_EQ(built.layout()[r + 1] - built.layout()[r], built.row(r).size()) << "row " << r;
    }

    RowStore rows;
    rows.reset(start);
    EdgeTable table;
    for (int round = 0; round < 6; ++round) {
      // Full rebuild: every in-edge arrives once, in a shuffled order.
      std::vector<std::size_t> order(edges.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      rows.clear();
      table.reset(edges.size());
      for (const std::size_t i : order) {
        rows.append(edges[i].row, edges[i].c, edges[i].w);
        table.insert_or_add(pack_key(static_cast<vid_t>(edges[i].row), edges[i].c),
                            edges[i].w);
      }
      rows.seal();
      ASSERT_NO_FATAL_FAILURE(expect_matches(rows, table));
      // Patches: an in-edge re-points from its community to another, as a
      // retraction followed by an assertion.
      for (int p = 0; p < 400; ++p) {
        InEdge& e = edges[rng.next_below(edges.size())];
        const auto row_id = static_cast<vid_t>(e.row);
        const vid_t to = static_cast<vid_t>(rng.next_below(kCommunities));
        ASSERT_EQ(rows.retract(e.row, e.c, e.w), table.retract(pack_key(row_id, e.c), e.w));
        ASSERT_EQ(rows.add(e.row, to, e.w), table.insert_or_add(pack_key(row_id, to), e.w));
        e.c = to;
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(rows, table));
    }
  }
}

TEST(RowStore, SealCombinesEqualCommunitiesInArrivalOrder) {
  RowStore rows;
  rows.reset({0, 5});
  rows.append(0, 9, 0.1);
  rows.append(0, 3, 1.0);
  rows.append(0, 9, 0.2);
  rows.append(0, 1, 2.0);
  rows.append(0, 9, 0.3);
  rows.seal();
  const auto row = rows.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].c, 1u);
  EXPECT_EQ(row[1].c, 3u);
  EXPECT_EQ(row[2].c, 9u);
  EXPECT_EQ(row[2].count, 3u);
  const double sum = (0.1 + 0.2) + 0.3;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(row[2].w), std::bit_cast<std::uint64_t>(sum));
  EXPECT_EQ(rows.size(), 3u);
}

TEST(RowStore, EntryLeavesAtZeroCountDespiteWeightDust) {
  RowStore rows;
  rows.reset({0, 4});
  EXPECT_TRUE(rows.add(0, 5, 0.1));
  EXPECT_FALSE(rows.add(0, 5, 0.2));
  EXPECT_FALSE(rows.retract(0, 5, 0.1));
  // 0.1 + 0.2 - 0.1 - 0.2 is not 0 in doubles; the count decides.
  ASSERT_NE(rows.find(0, 5)->w - 0.2, 0.0);
  EXPECT_TRUE(rows.retract(0, 5, 0.2));
  EXPECT_EQ(rows.find(0, 5), nullptr);
  EXPECT_EQ(rows.weight(0, 5), 0.0);
  EXPECT_EQ(rows.size(), 0u);
  EXPECT_TRUE(rows.row(0).empty());
}

TEST(RowStore, RowBeyondItsCapacityThrows) {
  RowStore rows;
  rows.reset({0, 2, 3});
  EXPECT_TRUE(rows.add(0, 4, 1.0));
  EXPECT_TRUE(rows.add(0, 2, 1.0));
  EXPECT_FALSE(rows.add(0, 4, 1.0));  // accumulating needs no new slot
  EXPECT_THROW(rows.add(0, 3, 1.0), std::logic_error);
  EXPECT_EQ(rows.row(0).size(), 2u);  // the failed add left the row intact
  EXPECT_EQ(rows.row(1).size(), 0u);

  rows.clear();
  rows.append(1, 7, 1.0);
  EXPECT_THROW(rows.append(1, 7, 1.0), std::logic_error);
  EXPECT_THROW(rows.retract(0, 9, 1.0), std::logic_error);  // absent entry
}

}  // namespace
}  // namespace plv::hashing
