// Engine footprint: every level's tables are sized by that level's own
// In_Table, not by the largest level the run has passed through. The
// invariant is checked through LouvainLevel::tables (and a Session
// snapshot's copy of it), which every build type reports — the engine's
// asserts are compiled out of release builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/louvain.hpp"
#include "common/random.hpp"
#include "core/options.hpp"
#include "core/session.hpp"
#include "gen/bter.hpp"
#include "gen/lfr.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

using KeySet = std::set<std::pair<vid_t, vid_t>>;

/// Level-0 In_Table keys, derived independently of the engine: (u, v) and
/// (v, u) per edge, (u, u) per self-loop.
KeySet level0_keys(const graph::EdgeList& edges) {
  KeySet keys;
  for (const Edge& e : edges) {
    keys.emplace(e.u, e.v);
    keys.emplace(e.v, e.u);
  }
  return keys;
}

/// Each level's In_Table entry count: level k+1's keys are level k's under
/// level k's labels (Algorithm 5's contraction).
std::vector<std::uint64_t> in_table_entries(KeySet keys, const Result& r) {
  std::vector<std::uint64_t> out;
  for (const LouvainLevel& level : r.levels) {
    out.push_back(keys.size());
    KeySet next;
    for (const auto& [a, b] : keys) next.emplace(level.labels[a], level.labels[b]);
    keys = std::move(next);
  }
  return out;
}

/// A level's slots stay within a constant factor of its own In_Table,
/// floored for the fixed minimum sizes every rank's tables keep on
/// near-empty levels.
void expect_level_proportional(const std::vector<TableFootprint>& tables, int nranks) {
  ASSERT_FALSE(tables.empty());
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const std::uint64_t scale =
        std::max<std::uint64_t>(tables[i].in_entries, 16 * static_cast<std::uint64_t>(nranks));
    EXPECT_LE(tables[i].slots, 64 * scale)
        << "level " << i << " holds " << tables[i].slots << " slots for "
        << tables[i].in_entries << " In_Table entries";
  }
}

struct Input {
  std::string name;
  graph::EdgeList edges;
  vid_t n;
};

Input bter_input() {
  return {"bter", gen::bter({.n = 3000, .gcc_target = 0.4, .seed = 8}).edges, 3000};
}

Input lfr_input() {
  return {"lfr", gen::lfr({.n = 2000, .mu = 0.3, .seed = 71}).edges, 2000};
}

core::ParOptions opts_with(int nranks) {
  core::ParOptions opts;
  opts.nranks = nranks;
  opts.transport = pml::TransportKind::kThread;
  return opts;
}

class EngineFootprint : public ::testing::TestWithParam<int> {
 private:
  pml::ScopedTransportEnv park_env_;
};

TEST_P(EngineFootprint, ColdSolveTablesTrackEachLevel) {
  const int nranks = GetParam();
  for (const Input& in : {bter_input(), lfr_input()}) {
    SCOPED_TRACE(in.name);
    const Result r = louvain(GraphSource::from_edges(in.edges, in.n), opts_with(nranks));
    ASSERT_GE(r.levels.size(), 2u);
    const std::vector<std::uint64_t> entries = in_table_entries(level0_keys(in.edges), r);
    std::vector<TableFootprint> tables;
    for (std::size_t i = 0; i < r.levels.size(); ++i) {
      EXPECT_EQ(r.levels[i].tables.in_entries, entries[i]) << "level " << i;
      tables.push_back(r.levels[i].tables);
    }
    expect_level_proportional(tables, nranks);
  }
}

TEST_P(EngineFootprint, SessionApplyTablesTrackEachLevel) {
  const int nranks = GetParam();
  const Input in = lfr_input();
  graph::EdgeList mirror = in.edges;
  EdgeDelta delta;
  Xoshiro256 rng(73);
  for (int i = 0; i < 20; ++i) {
    const auto u = static_cast<vid_t>(rng.next_below(in.n));
    const auto v = static_cast<vid_t>((u + 1 + rng.next_below(in.n - 1)) % in.n);
    delta.inserts.add(u, v, 1.0);
  }
  // A second, heavier copy of an existing edge, so a later removal can
  // leave that edge's entry in place.
  const Edge twin = in.edges.edges()[1];
  delta.inserts.add(twin.u, twin.v, 2.0);
  apply_edge_delta(mirror, delta);
  // fast(): the frontier re-refine on level 0 rebuilt from the replica;
  // deterministic(): a cold rebuild, then every level.
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "fast" : "deterministic");
    core::ParOptions opts = opts_with(nranks);
    opts.streaming =
        incremental ? core::StreamingPlan::fast() : core::StreamingPlan::deterministic();
    Session session(GraphSource::from_edges(in.edges, in.n), opts);
    const auto snap = session.apply(delta);
    ASSERT_EQ(snap->incremental, incremental);
    if (!incremental) {
      EXPECT_GE(snap->tables.size(), 2u);
    }
    ASSERT_FALSE(snap->tables.empty());
    EXPECT_EQ(snap->tables.front().in_entries, level0_keys(mirror).size());
    expect_level_proportional(snap->tables, nranks);
  }

  // Removals on the fast path: the only copy of one edge (its entries
  // leave) and the unit copy of the doubled edge (its entries stay, now
  // weighing the remaining 2.0).
  const Edge lone = in.edges.edges()[0];
  const auto copies = [&](const Edge& e) {
    return std::count_if(mirror.begin(), mirror.end(), [&](const Edge& r) {
      return (r.u == e.u && r.v == e.v) || (r.u == e.v && r.v == e.u);
    });
  };
  ASSERT_EQ(copies(lone), 1);
  ASSERT_EQ(copies(twin), 2);
  core::ParOptions opts = opts_with(nranks);
  opts.streaming = core::StreamingPlan::fast();
  Session session(GraphSource::from_edges(mirror, in.n), opts);
  EdgeDelta removals;
  removals.removals.add(lone.u, lone.v, lone.w);
  removals.removals.add(twin.u, twin.v, twin.w);
  apply_edge_delta(mirror, removals);
  ASSERT_EQ(copies(lone), 0);
  ASSERT_EQ(copies(twin), 1);
  const auto snap = session.apply(removals);
  ASSERT_TRUE(snap->incremental);
  ASSERT_FALSE(snap->tables.empty());
  EXPECT_EQ(snap->tables.front().in_entries, level0_keys(mirror).size());
  expect_level_proportional(snap->tables, nranks);
  // The reported Q is computed from the engine's rows; it matches a
  // recomputation on the mirror only if the doubled edge kept weight 2.0.
  const auto csr = graph::Csr::from_edges(mirror, in.n);
  EXPECT_NEAR(snap->modularity, metrics::modularity(csr, snap->labels), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, EngineFootprint, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "nranks" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace plv
