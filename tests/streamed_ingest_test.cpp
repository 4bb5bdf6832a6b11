// Distributed ingestion must be a pure refactoring of the input path:
// a from_stream GraphSource over slices == from_edges over their
// concatenation, bit for bit.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/louvain.hpp"
#include "core/options.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "transport_param.hpp"

namespace plv::core {
namespace {

ParOptions opts_with(int nranks) {
  ParOptions o;
  o.nranks = nranks;
  return o;
}

/// Round-robin slicing of a fixed edge list.
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

class StreamedIngest : public ::testing::TestWithParam<int> {};

TEST_P(StreamedIngest, BitIdenticalToMonolithicOnLfr) {
  const auto g = gen::lfr({.n = 800, .mu = 0.35, .seed = 71});
  const auto mono = plv::louvain(GraphSource::from_edges(g.edges, 800), opts_with(GetParam()));
  const EdgeSliceFn slice = round_robin(g.edges);
  const auto streamed =
      plv::louvain(GraphSource::from_stream(slice, 800), opts_with(GetParam()));
  EXPECT_EQ(streamed.final_labels, mono.final_labels);
  EXPECT_DOUBLE_EQ(streamed.final_modularity, mono.final_modularity);
  EXPECT_EQ(streamed.num_levels(), mono.num_levels());
}

TEST_P(StreamedIngest, RmatSlicesComposeLikeTheGenerator) {
  // The intended production use: each rank generates its own R-MAT slice
  // directly (rmat_slice), never materializing the global stream.
  gen::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = 72;
  const std::uint64_t total = static_cast<std::uint64_t>(p.edge_factor) << p.scale;
  const auto rmat_edges = gen::rmat(p);
  const auto mono =
      plv::louvain(GraphSource::from_edges(rmat_edges, 1u << p.scale), opts_with(GetParam()));
  const EdgeSliceFn rmat_sliced = [&](int rank, int nranks) {
        const std::uint64_t per = total / static_cast<std::uint64_t>(nranks);
        const std::uint64_t first = per * static_cast<std::uint64_t>(rank);
        const std::uint64_t count =
            rank == nranks - 1 ? total - first : per;  // remainder to last rank
    return gen::rmat_slice(p, first, count);
  };
  const auto streamed =
      plv::louvain(GraphSource::from_stream(rmat_sliced, 1u << p.scale), opts_with(GetParam()));
  EXPECT_EQ(streamed.final_labels, mono.final_labels);
  EXPECT_DOUBLE_EQ(streamed.final_modularity, mono.final_modularity);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, StreamedIngest, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "nranks" + std::to_string(info.param);
                         });

TEST(StreamedIngest, SelfLoopsAndWeightsSurviveRouting) {
  graph::EdgeList edges;
  edges.add(0, 1, 2.5);
  edges.add(2, 2, 1.5);
  edges.add(1, 2, 0.5);
  const auto mono = plv::louvain(GraphSource::from_edges(edges, 3), opts_with(2));
  const EdgeSliceFn slice = round_robin(edges);
  const auto streamed = plv::louvain(GraphSource::from_stream(slice, 3), opts_with(2));
  EXPECT_EQ(streamed.final_labels, mono.final_labels);
  EXPECT_DOUBLE_EQ(streamed.final_modularity, mono.final_modularity);
}

TEST(StreamedIngest, EmptyGraph) {
  const EdgeSliceFn nothing = [](int, int) { return graph::EdgeList{}; };
  const auto r = plv::louvain(GraphSource::from_stream(nothing, 0), opts_with(2));
  EXPECT_TRUE(r.final_labels.empty());
}

// A slice naming a vertex outside [0, n_vertices) is a caller error the
// ingesting rank reports before shipping any record — never an
// out-of-bounds write into the per-vertex arrays.
EdgeSliceFn slice_with_bad_edge_on_last_rank(vid_t n, vid_t bad) {
  return [n, bad](int rank, int nranks) {
    graph::EdgeList slice;
    for (vid_t v = static_cast<vid_t>(rank); v + 1 < n; v += static_cast<vid_t>(nranks)) {
      slice.add(v, v + 1);
    }
    if (rank == nranks - 1) slice.add(1, bad);
    return slice;
  };
}

class StreamedIngestFaults : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

TEST_P(StreamedIngestFaults, OutOfRangeEndpointFailsTheRun) {
  constexpr vid_t kN = 64;
  ParOptions opts = opts_with(4);
  opts.transport = GetParam();
  for (const vid_t bad : {kN, vid_t{0x7ffffff0u}}) {
    const EdgeSliceFn slice = slice_with_bad_edge_on_last_rank(kN, bad);
    if (GetParam() != pml::TransportKind::kThread) {
      // Off the thread transport the failing rank may live in another
      // process, so the error can arrive wrapped; what every transport
      // owes is a prompt throw, not a crash or a fleet parked forever in
      // the ingest drain.
      EXPECT_ANY_THROW((void)plv::louvain(GraphSource::from_stream(slice, kN), opts))
          << "endpoint " << bad;
      continue;
    }
    try {
      (void)plv::louvain(GraphSource::from_stream(slice, kN), opts);
      ADD_FAILURE() << "endpoint " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("(1, " + std::to_string(bad) + ")"), std::string::npos) << what;
      EXPECT_NE(what.find("n_vertices = 64"), std::string::npos) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, StreamedIngestFaults,
                         ::testing::ValuesIn(pml::kAllTransports), [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv::core
