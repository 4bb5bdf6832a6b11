#include "core/hierarchy.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "gen/planted.hpp"
#include "graph/csr.hpp"
#include "seq/louvain_seq.hpp"

namespace plv::core {
namespace {

LouvainResult run_seq(const graph::EdgeList& edges, vid_t n) {
  return seq::louvain(graph::Csr::from_edges(edges, n));
}

TEST(Hierarchy, LevelsAndLabelsMatchResult) {
  const auto g = gen::lfr({.n = 1000, .mu = 0.3, .seed = 61});
  const auto result = run_seq(g.edges, 1000);
  const Hierarchy h(result);
  ASSERT_EQ(h.num_levels(), result.num_levels());
  EXPECT_EQ(h.num_vertices(), 1000u);
  EXPECT_EQ(h.labels_at(h.num_levels() - 1), result.final_labels);
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    EXPECT_EQ(h.labels_at(l), result.labels_at_level(l));
    EXPECT_EQ(h.communities_at(l), result.levels[l].num_communities);
  }
}

TEST(Hierarchy, MembersPartitionTheVertexSet) {
  const auto g = gen::planted_partition(
      {.communities = 5, .community_size = 16, .p_intra = 0.8, .p_inter = 0.02, .seed = 62});
  const Hierarchy h(run_seq(g.edges, 80));
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    std::size_t total = 0;
    for (vid_t c = 0; c < static_cast<vid_t>(h.communities_at(l)); ++c) {
      const auto members = h.members(l, c);
      total += members.size();
      for (vid_t v : members) EXPECT_EQ(h.labels_at(l)[v], c);
    }
    EXPECT_EQ(total, 80u);
  }
}

TEST(Hierarchy, ParentChainsAreConsistent) {
  const auto g = gen::lfr({.n = 1500, .mu = 0.3, .seed = 63});
  const auto result = run_seq(g.edges, 1500);
  const Hierarchy h(result);
  if (h.num_levels() < 2) GTEST_SKIP() << "graph collapsed in one level";
  for (std::size_t l = 0; l + 1 < h.num_levels(); ++l) {
    for (vid_t c = 0; c < static_cast<vid_t>(h.communities_at(l)); ++c) {
      const vid_t parent = h.parent_of(l, c);
      ASSERT_NE(parent, kInvalidVid);
      // Every member of c must carry label `parent` at level l+1.
      for (vid_t v : h.members(l, c)) {
        EXPECT_EQ(h.labels_at(l + 1)[v], parent);
      }
    }
  }
  // Top level has no parents.
  EXPECT_EQ(h.parent_of(h.num_levels() - 1, 0), kInvalidVid);
}

TEST(Hierarchy, TreeNodeSizesSumToN) {
  const auto g = gen::lfr({.n = 800, .mu = 0.3, .seed = 64});
  const Hierarchy h(run_seq(g.edges, 800));
  const auto nodes = h.tree();
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    std::uint64_t total = 0;
    for (const TreeNode& node : nodes) {
      if (node.level == l) total += node.size;
    }
    EXPECT_EQ(total, 800u) << "level " << l;
  }
}

TEST(Hierarchy, WorksOnParallelResults) {
  const auto g = gen::lfr({.n = 800, .mu = 0.3, .seed = 65});
  ParOptions opts;
  opts.nranks = 4;
  const Result result = plv::louvain(GraphSource::from_edges(g.edges, 800), opts);
  const Hierarchy h(result);
  EXPECT_EQ(h.labels_at(h.num_levels() - 1), result.final_labels);
}

TEST(Hierarchy, WriteTreeEmitsOneLinePerChild) {
  const auto g = gen::planted_partition(
      {.communities = 3, .community_size = 8, .p_intra = 0.9, .p_inter = 0.02, .seed = 66});
  const auto result = run_seq(g.edges, 24);
  const Hierarchy h(result);
  std::ostringstream os;
  h.write_tree(os);
  std::size_t lines = 0;
  std::string line;
  std::istringstream is(os.str());
  std::size_t expected = 0;
  for (std::size_t l = 0; l < result.num_levels(); ++l) {
    expected += result.levels[l].labels.size();
  }
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, expected);
}

TEST(Hierarchy, OutOfRangeThrows) {
  const auto g = gen::planted_partition(
      {.communities = 3, .community_size = 8, .p_intra = 0.9, .p_inter = 0.02, .seed = 67});
  const Hierarchy h(run_seq(g.edges, 24));
  EXPECT_THROW((void)h.labels_at(99), std::out_of_range);
  EXPECT_THROW((void)h.communities_at(99), std::out_of_range);
  EXPECT_THROW((void)h.parent_of(99, 0), std::out_of_range);
}

}  // namespace
}  // namespace plv::core
