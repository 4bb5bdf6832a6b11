// The refine pipeline's communication shape, pinned per level on every
// transport: how many collective rounds a level costs, and how the global
// move tally travels.
//
// Each refine iteration runs exactly three collective rounds per rank —
// the gain max/count allreduce, the gain-histogram allreduce, and the
// combined modularity + trace reduction — and each level adds four: the
// level-start modularity allreduce, the two label gathers, and the next
// level's table-footprint allreduce. An iteration in which no vertex has a
// positive gain skips the histogram round; that iteration moves nothing,
// so it can only be a level's last. Every other exchange (Σtot
// request/reply, move deltas, Σin, propagation, reconstruction) rides the
// streaming plane and is not a collective.
//
// The move tally rides the delta exchange: every rank sends every rank one
// sentinel record per iteration, so a level ships exactly nranks² records
// per iteration more than it would with the tally on an allreduce. The
// per-level record counts each test passes in are what the refine loop
// sent when the tally was still a separate allreduce (the retired phased
// pipeline, same input, same options, identical labels); a level's
// traffic must exceed them by exactly that overhead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/louvain.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

constexpr std::uint64_t kRanks = 4;

class RefinePipeline : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

const graph::EdgeList& lfr_input() {
  static const auto g = gen::lfr({.n = 2000, .mu = 0.3, .seed = 23});
  return g.edges;
}

core::ParOptions opts_for(pml::TransportKind kind) {
  core::ParOptions opts;
  opts.nranks = static_cast<int>(kRanks);
  opts.transport = kind;
  return opts;
}

/// Checks every level of `r` against the pipeline's round and tally
/// arithmetic; `without_tally[l]` is level l's record count without the
/// sentinels.
void expect_pipeline_shape(const Result& r, const std::vector<std::uint64_t>& without_tally) {
  ASSERT_EQ(r.num_levels(), without_tally.size());
  for (std::size_t l = 0; l < r.num_levels(); ++l) {
    const LouvainLevel& level = r.levels[l];
    const auto& cutoffs = level.trace.gain_cutoff;
    ASSERT_FALSE(cutoffs.empty()) << "level " << l;
    const auto iters = static_cast<std::uint64_t>(cutoffs.size());
    // A negative cutoff means no positive gain anywhere: no histogram
    // round, no move, and the level stops there.
    const auto no_candidate = static_cast<std::uint64_t>(
        std::count_if(cutoffs.begin(), cutoffs.end(), [](double c) { return c < 0.0; }));
    EXPECT_LE(no_candidate, 1u) << "level " << l;
    if (no_candidate == 1) {
      EXPECT_LT(cutoffs.back(), 0.0) << "level " << l;
    }
    EXPECT_EQ(level.traffic.collectives, kRanks * (3 * iters + 4 - no_candidate))
        << "level " << l << ", " << iters << " iterations";
    EXPECT_EQ(level.traffic.records_sent, without_tally[l] + iters * kRanks * kRanks)
        << "level " << l << ", " << iters << " iterations";
    EXPECT_EQ(level.traffic.records_received, level.traffic.records_sent) << "level " << l;
  }
}

TEST_P(RefinePipeline, ColdStartPinsRoundsAndTally) {
  const auto r = louvain(GraphSource::from_edges(lfr_input()), opts_for(GetParam()));
  expect_pipeline_shape(r, {456320, 9042});
}

TEST_P(RefinePipeline, WarmStartPinsRoundsAndTally) {
  const auto seed_run = louvain(GraphSource::from_edges(lfr_input()), opts_for(GetParam()));
  const auto r = louvain(GraphSource::from_edges_warm(lfr_input(), seed_run.final_labels),
                         opts_for(GetParam()));
  expect_pipeline_shape(r, {38097});
}

// The cadence extremes change what propagation ships, not the pipeline's
// shape: the carried Σin and the piggybacked tally must hold under both the
// always-rebuild and the never-rebuild maintenance paths.
TEST_P(RefinePipeline, RebuildCadenceExtremesPinRoundsAndTally) {
  auto every = opts_for(GetParam());
  every.refine.full_rebuild_every = core::kRebuildEveryIteration;
  expect_pipeline_shape(louvain(GraphSource::from_edges(lfr_input()), every),
                        {2133675, 28036});
  auto never = opts_for(GetParam());
  never.refine.full_rebuild_every = core::kNeverRebuild;
  expect_pipeline_shape(louvain(GraphSource::from_edges(lfr_input()), never),
                        {427749, 9042});
}

INSTANTIATE_TEST_SUITE_P(Transports, RefinePipeline, ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv
