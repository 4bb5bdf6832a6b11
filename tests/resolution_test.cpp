// Generalized-modularity resolution parameter γ across metrics and both
// engines (the standard Louvain extension; γ = 1 reproduces the paper).
#include <gtest/gtest.h>

#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "gen/planted.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"
#include "seq/louvain_seq.hpp"

namespace plv {
namespace {

TEST(Resolution, GammaOneIsDefaultModularity) {
  const auto g = gen::lfr({.n = 500, .mu = 0.3, .seed = 81});
  const auto csr = graph::Csr::from_edges(g.edges, 500);
  EXPECT_DOUBLE_EQ(metrics::modularity(csr, g.ground_truth),
                   metrics::modularity(csr, g.ground_truth, 1.0));
}

TEST(Resolution, KnownValueOnTwoTriangles) {
  graph::EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(0, 2);
  e.add(3, 4);
  e.add(4, 5);
  e.add(3, 5);
  e.add(2, 3);
  const auto g = graph::Csr::from_edges(e);
  const std::vector<vid_t> split = {0, 0, 0, 1, 1, 1};
  // Q_γ = 2*(6/14 − γ(7/14)²) = 6/7 − γ/2.
  for (double gamma : {0.5, 1.0, 2.0}) {
    EXPECT_NEAR(metrics::modularity(g, split, gamma), 6.0 / 7.0 - gamma / 2.0, 1e-12);
  }
}

TEST(Resolution, HigherGammaYieldsMoreCommunitiesSeq) {
  const auto g = gen::lfr({.n = 2000, .mu = 0.25, .seed = 82});
  const auto csr = graph::Csr::from_edges(g.edges, 2000);
  seq::SeqOptions lo, hi;
  lo.resolution = 0.5;
  hi.resolution = 4.0;
  const auto r_lo = seq::louvain(csr, lo);
  const auto r_hi = seq::louvain(csr, hi);
  EXPECT_LT(metrics::count_communities(r_lo.final_labels),
            metrics::count_communities(r_hi.final_labels));
}

TEST(Resolution, HigherGammaYieldsMoreCommunitiesPar) {
  const auto g = gen::lfr({.n = 2000, .mu = 0.25, .seed = 83});
  core::ParOptions lo, hi;
  lo.nranks = hi.nranks = 4;
  lo.refine.resolution = 0.5;
  hi.refine.resolution = 4.0;
  const auto r_lo = plv::louvain(GraphSource::from_edges(g.edges, 2000), lo);
  const auto r_hi = plv::louvain(GraphSource::from_edges(g.edges, 2000), hi);
  EXPECT_LT(metrics::count_communities(r_lo.final_labels),
            metrics::count_communities(r_hi.final_labels));
}

TEST(Resolution, ReportedQMatchesRecomputationAtGamma) {
  const auto g = gen::lfr({.n = 800, .mu = 0.3, .seed = 84});
  const auto csr = graph::Csr::from_edges(g.edges, 800);
  for (double gamma : {0.5, 2.0}) {
    seq::SeqOptions sopts;
    sopts.resolution = gamma;
    const auto rs = seq::louvain(csr, sopts);
    EXPECT_NEAR(rs.final_modularity,
                metrics::modularity(csr, rs.final_labels, gamma), 1e-9);

    core::ParOptions popts;
    popts.nranks = 3;
    popts.refine.resolution = gamma;
    const auto rp = plv::louvain(GraphSource::from_edges(g.edges, 800), popts);
    EXPECT_NEAR(rp.final_modularity,
                metrics::modularity(csr, rp.final_labels, gamma), 1e-9);
  }
}

// γ must reach the streamed-ingestion path too: a from_stream run over
// round-robin slices is the same graph through a different front door,
// so its γ-generalized gains — and therefore its labels and reported Q —
// must exactly match the materialized from_edges run at the same γ.
TEST(Resolution, StreamedIngestionHonorsGamma) {
  const auto g = gen::lfr({.n = 1000, .mu = 0.25, .seed = 86});
  const EdgeSliceFn slice = [&](int rank, int nranks) {
    graph::EdgeList s;
    for (std::size_t i = static_cast<std::size_t>(rank); i < g.edges.size();
         i += static_cast<std::size_t>(nranks)) {
      s.add(g.edges.edges()[i].u, g.edges.edges()[i].v, g.edges.edges()[i].w);
    }
    return s;
  };
  for (double gamma : {0.5, 4.0}) {
    core::ParOptions opts;
    opts.nranks = 4;
    opts.refine.resolution = gamma;
    const auto streamed = plv::louvain(GraphSource::from_stream(slice, 1000), opts);
    const auto cold = plv::louvain(GraphSource::from_edges(g.edges, 1000), opts);
    EXPECT_EQ(streamed.final_labels, cold.final_labels) << "gamma " << gamma;
    EXPECT_EQ(streamed.final_modularity, cold.final_modularity) << "gamma " << gamma;
    const auto csr = graph::Csr::from_edges(g.edges, 1000);
    EXPECT_NEAR(streamed.final_modularity,
                metrics::modularity(csr, streamed.final_labels, gamma), 1e-9);
  }
  // The γ extremes must actually bite through the streamed door too.
  core::ParOptions lo_opts, hi_opts;
  lo_opts.nranks = hi_opts.nranks = 4;
  lo_opts.refine.resolution = 0.5;
  hi_opts.refine.resolution = 4.0;
  const auto lo = plv::louvain(GraphSource::from_stream(slice, 1000), lo_opts);
  const auto hi = plv::louvain(GraphSource::from_stream(slice, 1000), hi_opts);
  EXPECT_LT(metrics::count_communities(lo.final_labels),
            metrics::count_communities(hi.final_labels));
}

TEST(Resolution, TinyGammaMergesEverythingConnected) {
  const auto g = gen::planted_partition(
      {.communities = 4, .community_size = 16, .p_intra = 0.5, .p_inter = 0.05, .seed = 85});
  seq::SeqOptions opts;
  opts.resolution = 0.01;  // penalty vanishes: one giant community per component
  const auto r = seq::louvain(graph::Csr::from_edges(g.edges, 64), opts);
  EXPECT_LE(metrics::count_communities(r.final_labels), 3u);
}

}  // namespace
}  // namespace plv
