// Delta-vs-full-rebuild equivalence of Out_Table maintenance.
//
// The incremental STATE PROPAGATION (retraction/assertion pairs for moved
// vertices, RefinePlan::full_rebuild_every > 1) must be indistinguishable
// from rebuilding the table every iteration. On unit/integer-weight graphs
// every accumulation is an exact integer sum in doubles, so the two paths
// are *bit-compatible*: identical labels and modularity for every rebuild
// cadence, including "never rebuild". Non-integer weights accumulate
// bounded floating-point dust in patched entries; the count-based
// erase-on-zero keeps the table's density exact regardless, and the
// cadence bounds the drift (see DESIGN.md).
//
// Also pins the perf claim that motivates the whole mechanism: steady-
// state iterations ship a small multiple of moved-vertex degrees instead
// of Σ|In_Table| records.
#include <gtest/gtest.h>

#include <numeric>

#include "common/random.hpp"
#include "core/louvain_par.hpp"
#include "gen/er.hpp"
#include "gen/lfr.hpp"

namespace plv::core {
namespace {

ParOptions opts_with_cadence(int cadence, int nranks = 4) {
  ParOptions opts;
  opts.nranks = nranks;
  opts.refine.full_rebuild_every = cadence;
  return opts;
}

/// Cadences under test: every iteration (the legacy rebuild-always path),
/// a mid value, and never (pure delta after the level's initial build).
constexpr int kCadences[] = {1, 4, 0};

TEST(DeltaEquivalence, LfrLabelsBitCompatibleAcrossCadences) {
  const auto g = gen::lfr({.n = 1500, .mu = 0.3, .seed = 7});
  const auto reference = plv::louvain(GraphSource::from_edges(g.edges, 1500), opts_with_cadence(1));
  for (int cadence : {4, 0}) {
    const auto r = plv::louvain(GraphSource::from_edges(g.edges, 1500), opts_with_cadence(cadence));
    EXPECT_EQ(r.final_labels, reference.final_labels) << "cadence " << cadence;
    EXPECT_NEAR(r.final_modularity, reference.final_modularity, 1e-12);
    ASSERT_EQ(r.levels.size(), reference.levels.size());
    for (std::size_t lvl = 0; lvl < r.levels.size(); ++lvl) {
      EXPECT_EQ(r.levels[lvl].labels, reference.levels[lvl].labels)
          << "cadence " << cadence << " level " << lvl;
      EXPECT_NEAR(r.levels[lvl].modularity, reference.levels[lvl].modularity, 1e-12);
    }
  }
}

TEST(DeltaEquivalence, RandomizedErGraphsAgreeAcrossCadencesAndRanks) {
  // ER graphs have no community structure — refinement churns labels for
  // many low-gain iterations, stressing long delta chains between rebuilds.
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const auto edges = gen::erdos_renyi({.n = 600, .m = 3000, .seed = seed});
    for (int nranks : {1, 4}) {
      const auto reference =
          plv::louvain(GraphSource::from_edges(edges, 600), opts_with_cadence(1, nranks));
      for (int cadence : {4, 0}) {
        const auto r =
            plv::louvain(GraphSource::from_edges(edges, 600), opts_with_cadence(cadence, nranks));
        EXPECT_EQ(r.final_labels, reference.final_labels)
            << "seed " << seed << " nranks " << nranks << " cadence " << cadence;
        EXPECT_NEAR(r.final_modularity, reference.final_modularity, 1e-12);
      }
    }
  }
}

TEST(DeltaEquivalence, IntegerWeightedGraphStaysExact) {
  // Integer (but non-unit) weights: sums stay below 2^53, so delta
  // maintenance is still exact arithmetic.
  Xoshiro256 rng(21);
  graph::EdgeList edges;
  const vid_t n = 400;
  for (int i = 0; i < 2400; ++i) {
    const auto u = static_cast<vid_t>(rng.next_below(n));
    const auto v = static_cast<vid_t>(rng.next_below(n));
    edges.add(u, v, static_cast<weight_t>(rng.next_below(9) + 1));
  }
  const auto reference = plv::louvain(GraphSource::from_edges(edges, n), opts_with_cadence(1));
  for (int cadence : {4, 0}) {
    const auto r = plv::louvain(GraphSource::from_edges(edges, n), opts_with_cadence(cadence));
    EXPECT_EQ(r.final_labels, reference.final_labels) << "cadence " << cadence;
    EXPECT_NEAR(r.final_modularity, reference.final_modularity, 1e-12);
  }
}

TEST(DeltaEquivalence, WarmStartEntryPointAgreesAcrossCadences) {
  const auto g = gen::lfr({.n = 1000, .mu = 0.25, .seed = 31});
  // Seed from a coarse prior partition (the planted truth, perturbed by
  // collapsing pairs) so the warm path actually skips iterations.
  std::vector<vid_t> warm(1000);
  for (vid_t v = 0; v < 1000; ++v) warm[v] = g.ground_truth[v] / 2 * 2 % 1000;
  const auto reference =
      plv::louvain(GraphSource::from_edges_warm(g.edges, warm, 1000), opts_with_cadence(1));
  for (int cadence : {4, 0}) {
    const auto r = plv::louvain(GraphSource::from_edges_warm(g.edges, warm, 1000), opts_with_cadence(cadence));
    EXPECT_EQ(r.final_labels, reference.final_labels) << "cadence " << cadence;
    EXPECT_NEAR(r.final_modularity, reference.final_modularity, 1e-12);
  }
}

TEST(DeltaEquivalence, StreamedEntryPointAgreesAcrossCadences) {
  const auto g = gen::lfr({.n = 1000, .mu = 0.3, .seed = 37});
  const EdgeSliceFn slice_of = [&](int rank, int nranks) {
    graph::EdgeList slice;  // round-robin by record index
    for (std::size_t i = static_cast<std::size_t>(rank); i < g.edges.size();
         i += static_cast<std::size_t>(nranks)) {
      const Edge& e = g.edges.edges()[i];
      slice.add(e.u, e.v, e.w);
    }
    return slice;
  };
  const auto reference =
      plv::louvain(GraphSource::from_stream(slice_of, 1000), opts_with_cadence(1));
  for (int cadence : {4, 0}) {
    const auto r = plv::louvain(GraphSource::from_stream(slice_of, 1000), opts_with_cadence(cadence));
    EXPECT_EQ(r.final_labels, reference.final_labels) << "cadence " << cadence;
    EXPECT_NEAR(r.final_modularity, reference.final_modularity, 1e-12);
  }
}

TEST(DeltaEquivalence, FractionalWeightsDriftStaysBounded) {
  // Non-integer weights: bit-compatibility is not guaranteed (patched
  // entries carry floating-point dust), but the partition quality the two
  // paths reach must agree to well under any meaningful ΔQ.
  Xoshiro256 rng(47);
  graph::EdgeList edges;
  const vid_t n = 400;
  for (int i = 0; i < 2400; ++i) {
    const auto u = static_cast<vid_t>(rng.next_below(n));
    const auto v = static_cast<vid_t>(rng.next_below(n));
    edges.add(u, v, 0.1 * static_cast<weight_t>(rng.next_below(20) + 1));
  }
  const auto reference = plv::louvain(GraphSource::from_edges(edges, n), opts_with_cadence(1));
  for (int cadence : {4, 0}) {
    const auto r = plv::louvain(GraphSource::from_edges(edges, n), opts_with_cadence(cadence));
    EXPECT_NEAR(r.final_modularity, reference.final_modularity, 1e-6)
        << "cadence " << cadence;
  }
}

TEST(AdaptiveCadence, TrajectoryIsBitCompatibleAcrossDriftThresholds) {
  // The churn-driven rebuild trigger only changes *when* full rebuilds
  // happen, never what they compute: on integer-weight graphs every drift
  // threshold must reproduce the rebuild-always trajectory bitwise.
  const auto g = gen::lfr({.n = 1500, .mu = 0.3, .seed = 7});
  const auto reference = plv::louvain(GraphSource::from_edges(g.edges, 1500), opts_with_cadence(1));
  for (double drift : {kAdaptiveRebuildOff, 1e-9, 0.5, 8.0}) {
    auto opts = opts_with_cadence(kNeverRebuild);
    opts.refine.adaptive_rebuild_drift = drift;
    const auto r = plv::louvain(GraphSource::from_edges(g.edges, 1500), opts);
    EXPECT_EQ(r.final_labels, reference.final_labels) << "drift " << drift;
    EXPECT_NEAR(r.final_modularity, reference.final_modularity, 1e-12);
  }
}

TEST(AdaptiveCadence, TrafficSitsBetweenPureDeltaAndAlwaysRebuild) {
  // A mid drift threshold fires *some* rebuilds: more records than the
  // trigger-off pure-delta run, fewer than rebuilding every iteration.
  const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 53});
  const auto always = plv::louvain(GraphSource::from_edges(g.edges, 2000), opts_with_cadence(1));
  auto off_opts = opts_with_cadence(kNeverRebuild);
  off_opts.refine.adaptive_rebuild_drift = kAdaptiveRebuildOff;
  const auto pure_delta = plv::louvain(GraphSource::from_edges(g.edges, 2000), off_opts);
  auto mid_opts = opts_with_cadence(kNeverRebuild);
  mid_opts.refine.adaptive_rebuild_drift = 0.25;
  const auto adaptive = plv::louvain(GraphSource::from_edges(g.edges, 2000), mid_opts);

  ASSERT_EQ(adaptive.final_labels, always.final_labels);
  EXPECT_GT(adaptive.traffic.records_sent, pure_delta.traffic.records_sent)
      << "drift threshold 0.25 never fired a rebuild";
  EXPECT_LT(adaptive.traffic.records_sent, always.traffic.records_sent)
      << "drift threshold 0.25 rebuilt every iteration";
}

TEST(AdaptiveCadence, CounterStaysHardUpperBound) {
  // An enormous drift threshold never fires, so the fixed cadence must
  // still bound the time between rebuilds: cadence 4 with drift ∞ ships
  // the same records as cadence 4 with the trigger off.
  const auto g = gen::lfr({.n = 1500, .mu = 0.3, .seed = 7});
  auto huge_opts = opts_with_cadence(4);
  huge_opts.refine.adaptive_rebuild_drift = 1e18;
  auto off_opts = opts_with_cadence(4);
  off_opts.refine.adaptive_rebuild_drift = kAdaptiveRebuildOff;
  const auto huge = plv::louvain(GraphSource::from_edges(g.edges, 1500), huge_opts);
  const auto off = plv::louvain(GraphSource::from_edges(g.edges, 1500), off_opts);
  EXPECT_EQ(huge.final_labels, off.final_labels);
  EXPECT_EQ(huge.traffic.records_sent, off.traffic.records_sent);
}

TEST(DeltaTraffic, SteadyStateIterationsShipFarFewerRecords) {
  // The acceptance bar of the incremental path: once the first iteration's
  // mass migration is done, an all-iterations trace must show the delta
  // runs shipping at least 5× fewer propagation records than rebuilding
  // every iteration — measured on the same graph, same labels (the paths
  // are bit-compatible, so iteration counts line up exactly).
  const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 53});
  const auto full = plv::louvain(GraphSource::from_edges(g.edges, 2000), opts_with_cadence(1));
  const auto delta = plv::louvain(GraphSource::from_edges(g.edges, 2000), opts_with_cadence(0));
  ASSERT_EQ(full.final_labels, delta.final_labels);  // same trajectory
  ASSERT_FALSE(full.levels.empty());

  const auto& full_recs = full.levels[0].trace.prop_records;
  const auto& delta_recs = delta.levels[0].trace.prop_records;
  ASSERT_EQ(full_recs.size(), delta_recs.size());
  ASSERT_GE(full_recs.size(), 3u) << "need steady-state iterations to compare";

  // Iteration 1 moves most vertices; the delta path is allowed to fall
  // back to a full rebuild there (it must never ship more than one).
  for (std::size_t i = 0; i < full_recs.size(); ++i) {
    EXPECT_LE(delta_recs[i], full_recs[i]) << "iteration " << i + 1;
  }
  std::uint64_t full_steady = 0;
  std::uint64_t delta_steady = 0;
  for (std::size_t i = 1; i < full_recs.size(); ++i) {
    full_steady += full_recs[i];
    delta_steady += delta_recs[i];
  }
  EXPECT_GE(full_steady, 5 * delta_steady)
      << "steady-state traffic reduction below 5x: full=" << full_steady
      << " delta=" << delta_steady;

  // The reduction must show up in the run totals too.
  EXPECT_LT(delta.traffic.records_sent, full.traffic.records_sent);
}

}  // namespace
}  // namespace plv::core
