// Frontier-pruned refine: exact pins and edge cases.
//
// Active scheduling on the LFR n=2000 input is pinned bit for bit — the
// FNV-1a hash of the final labels, the bits of the final modularity and
// the iteration count of every level — on every transport, across cold,
// warm, and streamed ingestion. The values were measured on the engine
// that still kept a hashed Out_Table next to a row mirror and chose
// between two FIND scans (identical on all four transports there), so
// they hold the single row-store FIND to that engine's trajectory.
//
// With the heuristics off (the default), the engine must scan the full
// partition every iteration — pinned here through the scanned-vertices
// trace so a future change can't silently turn pruning on by default —
// and the heuristics bundle must hold quality parity while scanning
// strictly less.
//
// Vertex-following folds degree-1 vertices onto their anchors before
// level 0 and unfolds at the end; the edge cases live here: chains (a
// single pass on ORIGINAL degrees must not glue a 4-chain into one
// community), mutual leaf pairs (a lone edge: exactly one side folds),
// self-loops on leaves, isolated vertices (no neighbor, never folded),
// and stars (every leaf folds onto the hub).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/louvain.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

constexpr int kRanks = 4;

class FrontierEquivalence : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

const graph::EdgeList& lfr_input() {
  static const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 23});
  return g.edges;
}

/// Round-robin slicing of a fixed edge list (streamed-ingestion input).
EdgeSliceFn round_robin(const graph::EdgeList& edges) {
  return [&edges](int rank, int nranks) {
    graph::EdgeList slice;
    for (std::size_t i = static_cast<std::size_t>(rank); i < edges.size();
         i += static_cast<std::size_t>(nranks)) {
      slice.add(edges.edges()[i].u, edges.edges()[i].v, edges.edges()[i].w);
    }
    return slice;
  };
}

core::ParOptions scheduling_opts(pml::TransportKind kind) {
  core::ParOptions opts;
  opts.nranks = kRanks;
  opts.transport = kind;
  opts.refine.active_scheduling = true;
  return opts;
}

/// 64-bit FNV-1a over the little-endian bytes of each label.
std::uint64_t fnv1a(const std::vector<vid_t>& labels) {
  std::uint64_t h = 14695981039346656037ull;
  for (const vid_t l : labels) {
    for (int b = 0; b < 4; ++b) {
      h ^= (l >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Pin {
  std::uint64_t labels_fnv;
  std::uint64_t q_bits;
  std::vector<std::size_t> iterations;  // per level
};

void expect_pinned(const Result& r, const Pin& pin) {
  EXPECT_EQ(fnv1a(r.final_labels), pin.labels_fnv);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.final_modularity), pin.q_bits);
  std::vector<std::size_t> iterations;
  for (const auto& level : r.levels) iterations.push_back(level.trace.modularity.size());
  EXPECT_EQ(iterations, pin.iterations);
}

// Cold and streamed ingestion measured identical on this input (integer
// weights make the In_Table's fill order irrelevant), so they share a pin.
const Pin kColdPin{0x42fe093a462dd245ull, 0x3fe11fe148d499a3ull, {58, 11}};
const Pin kWarmPin{0x43356a9ae9d25b62ull, 0x3fe126d38ec12cdeull, {2}};

TEST_P(FrontierEquivalence, ActiveSchedulingPinsCold) {
  expect_pinned(louvain(GraphSource::from_edges(lfr_input()), scheduling_opts(GetParam())),
                kColdPin);
}

TEST_P(FrontierEquivalence, ActiveSchedulingPinsWarm) {
  core::ParOptions seed_opts;
  seed_opts.nranks = kRanks;
  seed_opts.transport = GetParam();
  const auto seed = louvain(GraphSource::from_edges(lfr_input()), seed_opts);
  expect_pinned(louvain(GraphSource::from_edges_warm(lfr_input(), seed.final_labels),
                        scheduling_opts(GetParam())),
                kWarmPin);
}

TEST_P(FrontierEquivalence, ActiveSchedulingPinsStreamed) {
  expect_pinned(louvain(GraphSource::from_stream(round_robin(lfr_input()), 2000),
                        scheduling_opts(GetParam())),
                kColdPin);
}

// With the heuristics at their defaults (all off) every FIND must scan
// the whole level graph: scanned_vertices[i] == num_vertices for every
// iteration of every level. This is the "default-off is the PR 8 full
// scan" pin — pruning may never switch itself on.
TEST_P(FrontierEquivalence, DefaultOffScansFullPartition) {
  core::ParOptions opts;
  opts.nranks = kRanks;
  opts.transport = GetParam();
  const auto r = louvain(GraphSource::from_edges(lfr_input()), opts);
  for (std::size_t l = 0; l < r.num_levels(); ++l) {
    ASSERT_FALSE(r.levels[l].trace.scanned_vertices.empty()) << "level " << l;
    for (const std::uint64_t scanned : r.levels[l].trace.scanned_vertices) {
      EXPECT_EQ(scanned, static_cast<std::uint64_t>(r.levels[l].num_vertices))
          << "level " << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, FrontierEquivalence,
                         ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

// The full bundle must hold quality parity on the LFR input while doing
// strictly less FIND work than the stock full scan. The trajectory is
// different by design, so the comparison is quality + work, not bits.
TEST(FrontierHeuristics, BundleHoldsQualityParityWithFewerScans) {
  pml::ScopedTransportEnv park_env;
  core::ParOptions stock;
  stock.nranks = kRanks;
  core::ParOptions bundle = stock;
  bundle.refine = core::RefinePlan::heuristics();

  const auto base = louvain(GraphSource::from_edges(lfr_input()), stock);
  const auto heur = louvain(GraphSource::from_edges(lfr_input()), bundle);

  EXPECT_NEAR(heur.final_modularity, base.final_modularity, 0.02);

  std::uint64_t base_scanned = 0;
  std::uint64_t heur_scanned = 0;
  for (const auto& level : base.levels) {
    for (std::uint64_t s : level.trace.scanned_vertices) base_scanned += s;
  }
  for (const auto& level : heur.levels) {
    for (std::uint64_t s : level.trace.scanned_vertices) heur_scanned += s;
  }
  EXPECT_LT(heur_scanned, base_scanned);
}

// --- Vertex-following edge cases (thread transport, tiny graphs). ---

core::ParOptions vf_opts(bool follow) {
  core::ParOptions opts;
  opts.nranks = 2;
  opts.refine.vertex_following = follow;
  return opts;
}

// A 4-chain's optimum is two pairs; folding must run ONE pass on the
// original degrees (an iterated fold would glue the whole chain: after
// 0->1 and 3->2, vertices 1 and 2 look degree-1 again).
TEST(VertexFollowing, FourChainKeepsTwoPairs) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList chain;
  chain.add(0, 1);
  chain.add(1, 2);
  chain.add(2, 3);
  const auto r = louvain(GraphSource::from_edges(chain), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 4u);
  EXPECT_EQ(r.final_labels[0], r.final_labels[1]);
  EXPECT_EQ(r.final_labels[2], r.final_labels[3]);
  EXPECT_NE(r.final_labels[1], r.final_labels[2]);
  const auto plain = louvain(GraphSource::from_edges(chain), vf_opts(false));
  EXPECT_NEAR(r.final_modularity, plain.final_modularity, 1e-12);
}

// A 5-chain has interior anchors of degree 2: only the end leaves fold,
// and each ends up co-membered with its anchor.
TEST(VertexFollowing, FiveChainLeavesJoinAnchors) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList chain;
  for (vid_t v = 0; v < 4; ++v) chain.add(v, v + 1);
  const auto r = louvain(GraphSource::from_edges(chain), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 5u);
  EXPECT_EQ(r.final_labels[0], r.final_labels[1]);
  EXPECT_EQ(r.final_labels[4], r.final_labels[3]);
}

// A lone edge is a mutual leaf pair: exactly one side folds (larger id
// onto smaller), the other is its anchor — never both, which would
// orphan the pair.
TEST(VertexFollowing, MutualLeafPairFoldsOneSide) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList pair;
  pair.add(0, 1);
  const auto r = louvain(GraphSource::from_edges(pair), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 2u);
  EXPECT_EQ(r.final_labels[0], r.final_labels[1]);
}

// A leaf carrying a self-loop must NOT fold: the always-join guarantee
// ΔQ = (w/m)(1 − Σtot(u)/2m) > 0 assumes the leaf's strength is its one
// edge, and the loop inflates the strength while the attachment gain
// stays w. On this graph (self-looped pendant on a triangle) the optimum
// keeps the pendant as its own singleton — folding would pin it to the
// triangle and lose modularity. With no other foldable vertex, the
// vertex-following run must be bit-identical to the plain one.
TEST(VertexFollowing, SelfLoopedLeafIsNotFolded) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList g;
  g.add(0, 0);  // self-loop on the pendant
  g.add(0, 1);
  g.add(1, 2);
  g.add(2, 3);
  g.add(3, 1);
  const auto r = louvain(GraphSource::from_edges(g), vf_opts(true));
  const auto plain = louvain(GraphSource::from_edges(g), vf_opts(false));
  ASSERT_EQ(r.final_labels.size(), 4u);
  EXPECT_EQ(r.final_modularity, plain.final_modularity);
  EXPECT_EQ(r.final_labels, plain.final_labels);
  // The singleton pendant is the optimum here, not a co-membership.
  EXPECT_NE(r.final_labels[0], r.final_labels[1]);
}

// An isolated vertex has no neighbor, so it is not a leaf: it must
// survive the fold/unfold round trip as its own singleton.
TEST(VertexFollowing, IsolatedVertexStaysSingleton) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList g;
  g.add(0, 1);
  g.add(1, 2);
  // Vertex 3 exists only through the explicit vertex count.
  const auto r = louvain(GraphSource::from_edges(g, 4), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 4u);
  EXPECT_NE(r.final_labels[3], r.final_labels[0]);
  EXPECT_NE(r.final_labels[3], r.final_labels[1]);
  EXPECT_NE(r.final_labels[3], r.final_labels[2]);
}

// Every spoke of a star folds onto the hub; the whole star is one
// community (the K_{1,n} modularity optimum).
TEST(VertexFollowing, StarCollapsesOntoHub) {
  pml::ScopedTransportEnv park_env;
  graph::EdgeList star;
  for (vid_t leaf = 1; leaf <= 5; ++leaf) star.add(0, leaf);
  const auto r = louvain(GraphSource::from_edges(star), vf_opts(true));
  ASSERT_EQ(r.final_labels.size(), 6u);
  for (vid_t v = 1; v <= 5; ++v) {
    EXPECT_EQ(r.final_labels[v], r.final_labels[0]) << "leaf " << v;
  }
}

// Warm start composes with vertex-following: the fold must not corrupt a
// seeded partition's quality on a structured input.
TEST(VertexFollowing, WarmStartHoldsQuality) {
  pml::ScopedTransportEnv park_env;
  const auto& edges = lfr_input();
  core::ParOptions seed_opts;
  seed_opts.nranks = kRanks;
  const auto seed = louvain(GraphSource::from_edges(edges), seed_opts);
  core::ParOptions warm_opts = seed_opts;
  warm_opts.refine.vertex_following = true;
  const auto warm =
      louvain(GraphSource::from_edges_warm(edges, seed.final_labels), warm_opts);
  EXPECT_GE(warm.final_modularity, seed.final_modularity - 0.02);
}

}  // namespace
}  // namespace plv
