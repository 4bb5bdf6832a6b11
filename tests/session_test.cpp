// plv::Session — the streaming front door. The contract under test:
//
//  * deterministic plan (rebuild_every_batches = 1): every apply() is a
//    cold run, bit-identical to a cold plv::louvain() of the patched
//    edge list — on every transport backend;
//  * fast plan (pure incremental, frontier-restricted): applies are
//    flagged incremental, stay close to the cold partition in quality,
//    and the reported Q always matches a recomputation on the true
//    current graph;
//  * the incremental path is partition-independent: a block-partition
//    session publishes the cyclic session's labels bit for bit, even as
//    new vertices shift block ownership;
//  * snapshots are immutable versioned values: epoch-monotone, readable
//    concurrently with applies, and an old snapshot never changes;
//  * failed applies (removing an absent edge) surface on the caller and
//    kill the session, but the last good snapshot keeps serving.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/louvain.hpp"
#include "common/random.hpp"
#include "core/options.hpp"
#include "gen/lfr.hpp"
#include "gen/planted.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "metrics/similarity.hpp"
#include "transport_param.hpp"

namespace plv {
namespace {

core::ParOptions session_opts(int nranks, core::StreamingPlan plan,
                              pml::TransportKind kind = pml::TransportKind::kThread) {
  core::ParOptions opts;
  opts.nranks = nranks;
  opts.transport = kind;
  opts.streaming = plan;
  return opts;
}

/// Deterministic churn batch: remove what the previous batch inserted,
/// insert `k` fresh random edges (mirrors bench/micro_streaming).
EdgeDelta make_batch(Xoshiro256& rng, std::vector<Edge>& pending, vid_t n,
                     std::size_t k) {
  EdgeDelta delta;
  for (const Edge& e : pending) delta.removals.add(e.u, e.v, e.w);
  pending.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const auto u = static_cast<vid_t>(rng.next_below(n));
    auto v = static_cast<vid_t>(rng.next_below(n));
    while (v == u) v = static_cast<vid_t>(rng.next_below(n));
    delta.inserts.add(u, v, 1.0);
    pending.push_back(Edge{u, v, 1.0});
  }
  return delta;
}

class SessionTransports : public ::testing::TestWithParam<pml::TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }

 private:
  pml::ScopedTransportEnv park_env_;
};

TEST_P(SessionTransports, DeterministicPlanMatchesColdRunEveryEpoch) {
  // The acceptance bar: with every batch a full rebuild, the session's
  // labels must be indistinguishable from throwing the patched edge list
  // at the cold front door — bitwise, on every backend.
  const auto g = gen::lfr({.n = 600, .mu = 0.3, .seed = 101});
  const vid_t n = 600;
  const auto opts =
      session_opts(4, core::StreamingPlan::deterministic(), GetParam());

  Session session(GraphSource::from_edges(g.edges, n), opts);
  graph::EdgeList mirror = g.edges;
  {
    const auto cold = louvain(GraphSource::from_edges(mirror, n), opts);
    const auto snap = session.snapshot();
    EXPECT_EQ(snap->epoch, 0u);
    EXPECT_EQ(snap->labels, cold.final_labels);
    EXPECT_EQ(snap->modularity, cold.final_modularity);
  }

  Xoshiro256 rng(102);
  std::vector<Edge> pending;
  for (std::uint64_t b = 1; b <= 3; ++b) {
    const EdgeDelta delta = make_batch(rng, pending, n, 40);
    apply_edge_delta(mirror, delta);
    const auto snap = session.apply(delta);
    const auto cold = louvain(GraphSource::from_edges(mirror, n), opts);
    EXPECT_EQ(snap->epoch, b);
    EXPECT_FALSE(snap->incremental);
    EXPECT_EQ(snap->labels, cold.final_labels) << "epoch " << b;
    EXPECT_EQ(snap->modularity, cold.final_modularity) << "epoch " << b;
  }
  session.close();
}

INSTANTIATE_TEST_SUITE_P(AllTransports, SessionTransports,
                         ::testing::ValuesIn(pml::kAllTransports),
                         [](const auto& info) {
                           return pml::transport_test_name(info.param);
                         });

TEST(Session, InitialSnapshotMatchesFromDeltasColdRun) {
  // A delta-composed source seeds the session exactly like the front door.
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 400, .mu = 0.3, .seed = 103});
  EdgeDelta d0;
  d0.inserts.add(0, 399, 1.0);
  d0.inserts.add(1, 398, 1.0);
  const auto opts = session_opts(2, core::StreamingPlan::deterministic());
  const auto cold = louvain(GraphSource::from_deltas(g.edges, d0, 400), opts);
  Session session(GraphSource::from_deltas(g.edges, d0, 400), opts);
  const auto snap = session.snapshot();
  EXPECT_EQ(snap->labels, cold.final_labels);
  EXPECT_EQ(snap->modularity, cold.final_modularity);
}

TEST(Session, IncrementalApplyKeepsQualityAndExactModularity) {
  pml::ScopedTransportEnv park;
  const auto g = gen::planted_partition(
      {.communities = 8, .community_size = 32, .p_intra = 0.4, .p_inter = 0.005, .seed = 104});
  const vid_t n = 8 * 32;
  const auto opts = session_opts(4, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, n), opts);

  graph::EdgeList mirror = g.edges;
  Xoshiro256 rng(105);
  std::vector<Edge> pending;
  for (int b = 0; b < 3; ++b) {
    const EdgeDelta delta = make_batch(rng, pending, n, 20);
    apply_edge_delta(mirror, delta);
    const auto snap = session.apply(delta);
    EXPECT_TRUE(snap->incremental);
    // Reported Q is computed on level 0 rebuilt from the patched replica —
    // it must agree with an independent recomputation on the mirror graph.
    const auto csr = graph::Csr::from_edges(mirror, n);
    EXPECT_NEAR(snap->modularity, metrics::modularity(csr, snap->labels), 1e-9);
    // Dirty-region re-refine keeps the partition close to a cold one.
    const auto cold = louvain(GraphSource::from_edges(mirror, n),
                              session_opts(4, core::StreamingPlan::deterministic()));
    EXPECT_GT(metrics::nmi(snap->labels, cold.final_labels), 0.8) << "batch " << b;
    EXPECT_GT(snap->modularity, 0.9 * cold.final_modularity) << "batch " << b;
  }
}

TEST(Session, SnapshotsAreImmutableVersionedValues) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 300, .mu = 0.3, .seed = 106});
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, 300), opts);

  const auto epoch0 = session.snapshot();
  const auto labels0 = epoch0->labels;  // deep copy to compare against later

  EdgeDelta delta;
  for (vid_t v = 0; v < 40; ++v) delta.inserts.add(v, 299 - v, 1.0);
  const auto epoch1 = session.apply(delta);

  // The old snapshot is untouched by the newer epoch...
  EXPECT_EQ(epoch0->epoch, 0u);
  EXPECT_EQ(epoch0->labels, labels0);
  // ...and the session now serves the new one.
  EXPECT_EQ(epoch1->epoch, 1u);
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.snapshot()->epoch, 1u);
}

TEST(Session, EmptyDeltaAdvancesEpochAndKeepsLabels) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 300, .mu = 0.3, .seed = 107});
  const auto opts = session_opts(2, core::StreamingPlan::deterministic());
  Session session(GraphSource::from_edges(g.edges, 300), opts);
  const auto before = session.snapshot();
  const auto after = session.apply(EdgeDelta{});
  EXPECT_EQ(after->epoch, before->epoch + 1);
  EXPECT_EQ(after->labels, before->labels);
  EXPECT_EQ(after->modularity, before->modularity);
}

TEST(Session, VertexAdditionsJoinAndIsolatesStaySingletons) {
  pml::ScopedTransportEnv park;
  const auto g = gen::planted_partition(
      {.communities = 4, .community_size = 16, .p_intra = 0.6, .p_inter = 0.01, .seed = 108});
  const vid_t n = 64;
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, n), opts);

  // Grow the vertex set: 64..66 appear, 64 wired into community 0's
  // anchor, 65 and 66 isolated.
  EdgeDelta delta;
  delta.n_vertices = 67;
  delta.inserts.add(64, 0, 4.0);
  delta.inserts.add(64, 1, 4.0);
  const auto snap = session.apply(delta);
  ASSERT_EQ(snap->n_vertices, 67u);
  ASSERT_EQ(snap->labels.size(), 67u);
  EXPECT_EQ(snap->community_of(64), snap->community_of(0));
  // Labels are compacted community ids: the isolated newcomers each sit
  // in their own singleton community, distinct from each other.
  EXPECT_NE(snap->community_of(65), snap->community_of(66));
  EXPECT_EQ(session.community_members(snap->community_of(65)),
            std::vector<vid_t>{65u});
  EXPECT_EQ(session.community_members(snap->community_of(66)),
            std::vector<vid_t>{66u});

  // community_members and query agree with the label vector.
  const auto members = session.community_members(snap->community_of(0));
  EXPECT_NE(std::find(members.begin(), members.end(), 64u), members.end());
  EXPECT_EQ(session.query(65), snap->community_of(65));
}

TEST(Session, EdgeDeletionsShrinkCommunities) {
  pml::ScopedTransportEnv park;
  // Two triangles joined by a bridge; delete the bridge and the halves
  // must fall apart into two communities.
  graph::EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(0, 2);
  e.add(3, 4);
  e.add(4, 5);
  e.add(3, 5);
  e.add(2, 3, 0.5);
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(e, 6), opts);

  EdgeDelta delta;
  delta.removals.add(2, 3, 0.5);
  const auto snap = session.apply(delta);
  EXPECT_EQ(snap->community_of(0), snap->community_of(2));
  EXPECT_EQ(snap->community_of(3), snap->community_of(5));
  EXPECT_NE(snap->community_of(0), snap->community_of(3));
}

TEST(Session, ConcurrentReadersSeeMonotoneEpochsDuringApplies) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 400, .mu = 0.3, .seed = 109});
  const vid_t n = 400;
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, n), opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = session.snapshot();
        if (snap->epoch < last || snap->labels.size() != snap->n_vertices) {
          violation.store(true);
        }
        last = snap->epoch;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Xoshiro256 rng(110);
  std::vector<Edge> pending;
  for (int b = 0; b < 4; ++b) {
    (void)session.apply(make_batch(rng, pending, n, 30));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(violation.load());
  // Reads proceed while applies are in flight — a blocked reader would
  // have managed only a handful.
  EXPECT_GT(reads.load(), 4u);
}

TEST(Session, ExpiredGraphSourceIsRejected) {
  pml::ScopedTransportEnv park;
  graph::EdgeList e;
  e.add(0, 1);
  GraphSource src = GraphSource::from_edges(e, 2);
  GraphSource moved = std::move(src);
  const auto opts = session_opts(1, core::StreamingPlan::fast());
  EXPECT_THROW(Session(src, opts), std::logic_error);
  EXPECT_NO_THROW({
    Session ok(moved, opts);
    ok.close();
  });
}

TEST(Session, BlockPartitionAppliesMatchCyclic) {
  // Level 0 is rebuilt from the replica on every pass, so the frontier
  // re-refine does not care who owns a vertex: a block-partition session
  // must publish exactly the cyclic session's labels, including after
  // batches that add a vertex and so move the block boundaries. Q is a
  // sum over owned communities, so ownership changes its rounding only
  // (as in Invariance.PartitionKindDoesNotChangeResult).
  pml::ScopedTransportEnv park;
  vid_t n = 2000;
  const auto g = gen::lfr({.n = n, .mu = 0.3, .seed = 112});
  const auto cyclic_opts = session_opts(4, core::StreamingPlan::fast());
  auto block_opts = cyclic_opts;
  block_opts.partition = graph::PartitionKind::kBlock;
  Session cyclic(GraphSource::from_edges(g.edges, n), cyclic_opts);
  Session block(GraphSource::from_edges(g.edges, n), block_opts);
  EXPECT_EQ(block.snapshot()->labels, cyclic.snapshot()->labels);

  Xoshiro256 rng(113);
  std::vector<Edge> pending;
  for (int b = 0; b < 24; ++b) {
    EdgeDelta delta = make_batch(rng, pending, n, 20);
    if (b % 4 == 3) {
      // A new vertex id, wired to an existing vertex.
      delta.inserts.add(static_cast<vid_t>(rng.next_below(n)), n, 1.0);
      delta.n_vertices = ++n;
    }
    const auto want = cyclic.apply(delta);
    const auto got = block.apply(delta);
    ASSERT_TRUE(want->incremental) << "batch " << b;
    EXPECT_TRUE(got->incremental) << "batch " << b;
    EXPECT_EQ(got->n_vertices, n) << "batch " << b;
    EXPECT_EQ(got->labels, want->labels) << "batch " << b;
    EXPECT_DOUBLE_EQ(got->modularity, want->modularity) << "batch " << b;
  }
}

TEST(Session, BadRemovalFailsTheApplyButKeepsServingSnapshots) {
  pml::ScopedTransportEnv park;
  const auto g = gen::lfr({.n = 200, .mu = 0.3, .seed = 111});
  const auto opts = session_opts(2, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(g.edges, 200), opts);
  const auto good = session.snapshot();

  EdgeDelta bogus;
  bogus.removals.add(0, 1, 123.456);  // no such record
  EXPECT_THROW((void)session.apply(bogus), std::invalid_argument);

  // The fleet is gone, but reads still serve the last good epoch.
  EXPECT_EQ(session.snapshot()->epoch, good->epoch);
  EXPECT_THROW((void)session.apply(EdgeDelta{}), std::exception);
  session.close();
}

TEST(Session, ApplyAfterCloseThrows) {
  pml::ScopedTransportEnv park;
  graph::EdgeList e;
  e.add(0, 1);
  const auto opts = session_opts(1, core::StreamingPlan::fast());
  Session session(GraphSource::from_edges(e, 2), opts);
  session.close();
  session.close();  // idempotent
  EXPECT_THROW((void)session.apply(EdgeDelta{}), std::logic_error);
}

}  // namespace
}  // namespace plv
