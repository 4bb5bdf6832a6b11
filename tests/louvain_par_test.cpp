#include "core/louvain_par.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gen/lfr.hpp"
#include "gen/planted.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"
#include "metrics/similarity.hpp"

namespace plv::core {
namespace {

ParOptions opts_with(int nranks) {
  ParOptions o;
  o.nranks = nranks;
  return o;
}

class ParLouvainRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParLouvainRanks, RecoversRingOfCliques) {
  const auto graph = gen::ring_of_cliques(8, 5);
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 40), opts_with(GetParam()));
  EXPECT_GT(metrics::nmi(r.final_labels, graph.ground_truth), 0.95);
  EXPECT_GT(r.final_modularity, 0.6);
}

TEST_P(ParLouvainRanks, ReportedModularityMatchesRecomputation) {
  const auto graph = gen::lfr({.n = 1000, .mu = 0.3, .seed = 21});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 1000), opts_with(GetParam()));
  const auto g = graph::Csr::from_edges(graph.edges, 1000);
  EXPECT_NEAR(r.final_modularity, metrics::modularity(g, r.final_labels), 1e-9);
}

TEST_P(ParLouvainRanks, ResultIndependentOfRankCount) {
  // Determinism within a rank count is bit-exact; across rank counts the
  // partitions must agree in quality (NMI vs ground truth close).
  const auto graph = gen::planted_partition(
      {.communities = 8, .community_size = 16, .p_intra = 0.7, .p_inter = 0.02, .seed = 22});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 128), opts_with(GetParam()));
  EXPECT_GT(metrics::nmi(r.final_labels, graph.ground_truth), 0.9);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParLouvainRanks, ::testing::Values(1, 2, 4, 7),
                         [](const auto& info) {
                           return "nranks" + std::to_string(info.param);
                         });

TEST(ParLouvain, DeterministicAcrossRuns) {
  const auto graph = gen::lfr({.n = 800, .mu = 0.3, .seed = 23});
  const Result a = plv::louvain(GraphSource::from_edges(graph.edges, 800), opts_with(4));
  const Result b = plv::louvain(GraphSource::from_edges(graph.edges, 800), opts_with(4));
  EXPECT_EQ(a.final_labels, b.final_labels);
  EXPECT_DOUBLE_EQ(a.final_modularity, b.final_modularity);
  EXPECT_EQ(a.num_levels(), b.num_levels());
}

TEST(ParLouvain, LevelLabelChainsComposeToFinal) {
  const auto graph = gen::lfr({.n = 600, .mu = 0.3, .seed = 24});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 600), opts_with(3));
  ASSERT_GE(r.num_levels(), 1u);
  EXPECT_EQ(r.labels_at_level(r.num_levels() - 1), r.final_labels);
}

TEST(ParLouvain, LevelSizesChain) {
  const auto graph = gen::lfr({.n = 1200, .mu = 0.4, .seed = 25});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 1200), opts_with(4));
  for (std::size_t l = 1; l < r.levels.size(); ++l) {
    EXPECT_EQ(r.levels[l].num_vertices, r.levels[l - 1].num_communities);
  }
  for (const auto& level : r.levels) {
    EXPECT_EQ(level.labels.size(), level.num_vertices);
    for (vid_t c : level.labels) EXPECT_LT(c, level.num_communities);
  }
}

TEST(ParLouvain, BlockPartitionAgreesWithCyclic) {
  const auto graph = gen::planted_partition(
      {.communities = 6, .community_size = 20, .p_intra = 0.7, .p_inter = 0.02, .seed = 26});
  ParOptions cyc = opts_with(4);
  ParOptions blk = opts_with(4);
  blk.partition = graph::PartitionKind::kBlock;
  const Result a = plv::louvain(GraphSource::from_edges(graph.edges, 120), cyc);
  const Result b = plv::louvain(GraphSource::from_edges(graph.edges, 120), blk);
  EXPECT_GT(metrics::nmi(a.final_labels, b.final_labels), 0.9);
}

TEST(ParLouvain, NaiveVariantConvergesSlowerOrWorse) {
  // Fig. 4's point: without the heuristic the chaotic motion hurts
  // modularity per outer round. We check the heuristic never loses.
  const auto graph = gen::lfr({.n = 1500, .mu = 0.4, .seed = 27});
  ParOptions with = opts_with(4);
  ParOptions without = opts_with(4);
  without.refine.threshold = ThresholdModel::kNone;
  const Result a = plv::louvain(GraphSource::from_edges(graph.edges, 1500), with);
  const Result b = plv::louvain(GraphSource::from_edges(graph.edges, 1500), without);
  EXPECT_GE(a.final_modularity, b.final_modularity - 0.05);
}

TEST(ParLouvain, SelfLoopsAndParallelEdgesHandled) {
  graph::EdgeList e;
  e.add(0, 1);
  e.add(0, 1);  // parallel edge
  e.add(1, 2);
  e.add(2, 2, 2.0);  // self loop
  e.add(3, 4);
  const Result r = plv::louvain(GraphSource::from_edges(e, 5), opts_with(2));
  const auto g = graph::Csr::from_edges(e, 5);
  EXPECT_NEAR(r.final_modularity, metrics::modularity(g, r.final_labels), 1e-9);
}

TEST(ParLouvain, IsolatedVerticesSurviveAsSingletons) {
  graph::EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(0, 2);
  const Result r = plv::louvain(GraphSource::from_edges(e, 6), opts_with(3));
  ASSERT_EQ(r.final_labels.size(), 6u);
  EXPECT_NE(r.final_labels[4], r.final_labels[5]);
  EXPECT_EQ(r.final_labels[0], r.final_labels[2]);
}

TEST(ParLouvain, EdgelessGraphYieldsSingletonsAndZeroQ) {
  // n vertices, no edges: Eq. 3 is undefined (m = 0); the engine must
  // return singleton communities and Q = 0 rather than NaN.
  const Result r = plv::louvain(GraphSource::from_edges(graph::EdgeList{}, 0), opts_with(2));
  (void)r;
  graph::EdgeList no_edges;
  ParOptions opts = opts_with(3);
  const Result res = plv::louvain(GraphSource::from_edges(no_edges, 0), opts);
  EXPECT_TRUE(res.final_labels.empty());

  // Explicit vertex count with zero edges.
  Result res5;
  {
    graph::EdgeList e;  // empty
    res5 = plv::louvain(GraphSource::from_edges(e, 5), opts);
  }
  ASSERT_EQ(res5.final_labels.size(), 5u);
  for (vid_t v = 0; v < 5; ++v) EXPECT_EQ(res5.final_labels[v], v);
  EXPECT_DOUBLE_EQ(res5.final_modularity, 0.0);
  EXPECT_FALSE(std::isnan(res5.final_modularity));
}

TEST(ParLouvain, EmptyGraphReturnsEmptyResult) {
  // Cold, warm and streamed runs share one launcher, which answers an
  // empty graph without spawning a fleet: an empty result that still
  // names the backend the run resolved to.
  const std::string expected =
      pml::transport_kind_name(pml::resolve_transport(pml::TransportKind::kThread));
  const graph::EdgeList none;
  const std::vector<vid_t> no_labels;
  const EdgeSliceFn nothing = [](int, int) { return graph::EdgeList{}; };
  for (const GraphSource& source :
       {GraphSource::from_edges(none, 0), GraphSource::from_edges_warm(none, no_labels),
        GraphSource::from_stream(nothing, 0)}) {
    const Result r = plv::louvain(source, opts_with(2));
    EXPECT_TRUE(r.final_labels.empty());
    EXPECT_EQ(r.num_levels(), 0u);
    EXPECT_EQ(r.transport, expected);
    EXPECT_TRUE(r.rank_seconds.empty());
  }
}

TEST(ParLouvain, TrafficCountersArePopulated) {
  const auto graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 28});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 500), opts_with(4));
  EXPECT_GT(r.traffic.records_sent, 0u);
  EXPECT_EQ(r.traffic.records_sent, r.traffic.records_received);
  EXPECT_GT(r.traffic.bytes_sent, 0u);
  EXPECT_EQ(r.rank_seconds.size(), 4u);
}

TEST(ParLouvain, PhaseTimersUseFig8Names) {
  const auto graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 29});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 500), opts_with(2));
  EXPECT_GT(r.timers.get(phase::kStatePropagation), 0.0);
  EXPECT_GT(r.timers.get(phase::kFindBestCommunity), 0.0);
  EXPECT_GT(r.timers.get(phase::kRefine), 0.0);
  EXPECT_GT(r.timers.get(phase::kGraphReconstruction), 0.0);
}

// The ΔQ̂ cutoff and the Σin exchange (with the iteration's closing
// allreduce) are named phases of their own, nested in REFINE alongside
// FIND and UPDATE; on one rank the max-over-ranks reduction is exact, so
// the four nested phases cannot exceed REFINE.
TEST(ParLouvain, RefineSubphasesAreNamedAndNested) {
  const auto graph = gen::lfr({.n = 1000, .mu = 0.3, .seed = 29});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 1000), opts_with(1));
  const auto has = [&r](const char* name) {
    for (const auto& [phase_name, secs] : r.timers.items()) {
      if (phase_name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(phase::kGainCutoff));
  EXPECT_TRUE(has(phase::kSigmaInExchange));
  const double nested = r.timers.get(phase::kFindBestCommunity) +
                        r.timers.get(phase::kGainCutoff) +
                        r.timers.get(phase::kUpdateCommunity) +
                        r.timers.get(phase::kSigmaInExchange);
  EXPECT_GT(nested, 0.0);
  EXPECT_LE(nested, r.timers.get(phase::kRefine));
}

TEST(ParLouvain, LevelStopReportsTheIterationCap) {
  const auto graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 31});
  ParOptions opts = opts_with(2);
  opts.refine.max_inner_iterations = 1;
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 500), opts);
  ASSERT_FALSE(r.levels.empty());
  EXPECT_EQ(r.levels.front().stop, LevelStop::kIterationCap);
}

TEST(ParLouvain, LevelStopReportsStagnation) {
  // No iteration can gain a whole unit of Q, so the first one that moves
  // anything already fills a one-iteration stagnation window.
  const auto graph = gen::lfr({.n = 500, .mu = 0.3, .seed = 31});
  ParOptions opts = opts_with(2);
  opts.refine.q_tolerance = 1.0;
  opts.refine.stagnation_window = 1;
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 500), opts);
  ASSERT_FALSE(r.levels.empty());
  EXPECT_EQ(r.levels.front().stop, LevelStop::kStagnated);
  EXPECT_EQ(r.levels.front().trace.modularity.size(), 1u);
}

TEST(ParLouvain, LevelStopReportsNoMoves) {
  // Two disjoint edges: the first iteration merges each pair (only the
  // larger id of a singleton pair may move), the second moves nothing.
  graph::EdgeList e;
  e.add(0, 1);
  e.add(2, 3);
  const Result r = plv::louvain(GraphSource::from_edges(e, 4), opts_with(2));
  ASSERT_FALSE(r.levels.empty());
  EXPECT_EQ(r.levels.front().stop, LevelStop::kNoMoves);
  EXPECT_EQ(r.levels.front().trace.modularity.size(), 2u);
  EXPECT_EQ(r.levels.front().num_communities, 2u);
}

TEST(ParLouvain, TraceRecordsEpsilonAndCutoff) {
  const auto graph = gen::lfr({.n = 600, .mu = 0.4, .seed = 30});
  const Result r = plv::louvain(GraphSource::from_edges(graph.edges, 600), opts_with(2));
  ASSERT_FALSE(r.levels.empty());
  const auto& trace = r.levels.front().trace;
  ASSERT_FALSE(trace.epsilon.empty());
  EXPECT_EQ(trace.epsilon.size(), trace.moved_fraction.size());
  EXPECT_EQ(trace.gain_cutoff.size(), trace.moved_fraction.size());
  for (double eps : trace.epsilon) {
    EXPECT_GE(eps, 0.0);
    EXPECT_LE(eps, 1.0);
  }
}

TEST(ParLouvain, WeightedGraphModularityConsistent) {
  graph::EdgeList e;
  e.add(0, 1, 10.0);
  e.add(1, 2, 10.0);
  e.add(0, 2, 10.0);
  e.add(3, 4, 10.0);
  e.add(4, 5, 10.0);
  e.add(3, 5, 10.0);
  e.add(2, 3, 0.1);  // weak bridge
  const Result r = plv::louvain(GraphSource::from_edges(e, 6), opts_with(2));
  EXPECT_EQ(r.final_labels[0], r.final_labels[1]);
  EXPECT_EQ(r.final_labels[3], r.final_labels[5]);
  EXPECT_NE(r.final_labels[0], r.final_labels[3]);
}

TEST(ThresholdModelTest, EpsilonShapes) {
  // Decay model decreases with iteration.
  double prev = 2.0;
  for (int iter = 1; iter <= 10; ++iter) {
    const double e = epsilon_of(ThresholdModel::kExponentialDecay, 1.4, 2.5, iter);
    EXPECT_LT(e, prev);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
    prev = e;
  }
  // kNone is always 1.
  EXPECT_DOUBLE_EQ(epsilon_of(ThresholdModel::kNone, 0.1, 0.1, 5), 1.0);
  // Eq. 7 with the library defaults: clamped, strictly decreasing, and
  // floored at p1 (the property that keeps refinement moving).
  prev = 2.0;
  for (int iter = 1; iter <= 30; ++iter) {
    const double e = epsilon_of(ThresholdModel::kPaperEq7, 0.03, 0.3, iter);
    EXPECT_GE(e, 0.03);
    EXPECT_LE(e, 1.0);
    EXPECT_LT(e, prev);
    prev = e;
  }
  // First iteration is nearly unthrottled, tail is a few percent.
  EXPECT_GT(epsilon_of(ThresholdModel::kPaperEq7, 0.03, 0.3, 1), 0.5);
  EXPECT_LT(epsilon_of(ThresholdModel::kPaperEq7, 0.03, 0.3, 10), 0.1);
}

}  // namespace
}  // namespace plv::core
