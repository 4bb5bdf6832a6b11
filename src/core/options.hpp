// Configuration of the parallel Louvain engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/partition.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_hybrid.hpp"
#include "pml/transport_tcp.hpp"

namespace plv::core {

// Named values for the knobs whose numeric defaults double as mode
// switches. Use these instead of raw 0/1 literals at call sites — the
// literal alone does not say *which* special behavior it selects.

/// ParOptions::aggregator_capacity — size the per-destination coalescing
/// buffers from the fleet size and record width
/// (pml::auto_aggregator_capacity) instead of a fixed record count.
inline constexpr std::size_t kAutoAggregatorCapacity = 0;

/// ParOptions::chunk_pool_watermark — never trim the per-rank chunk free
/// list (the historical unbounded-pool behavior).
inline constexpr std::size_t kUnboundedChunkPool = 0;

/// RefinePlan::full_rebuild_every — rebuild the Out_Table from scratch in
/// every inner iteration (the legacy pre-delta behavior; the ablation
/// baseline for the incremental-maintenance benches).
inline constexpr int kRebuildEveryIteration = 1;

/// RefinePlan::full_rebuild_every — never schedule a cadence rebuild; ship
/// retraction/assertion deltas only (the traffic-based fallback to a full
/// rebuild still applies when the delta would be larger).
inline constexpr int kNeverRebuild = 0;

/// RefinePlan::adaptive_rebuild_drift — disable the churn-driven rebuild
/// trigger; only the fixed cadence and the traffic fallback schedule full
/// rebuilds.
inline constexpr double kAdaptiveRebuildOff = 0.0;

/// StreamingPlan::rebuild_every_batches — run a full cold rebuild inside
/// the resident fleet on *every* Session::apply. In this mode an apply is
/// exactly a cold run on the updated graph, so its labels are
/// bit-identical to plv::louvain on the same edge list — the
/// exact-equivalence mode the streaming test suite pins.
inline constexpr int kColdRebuildEveryBatch = 1;

/// StreamingPlan::rebuild_every_batches — never schedule a cadence cold
/// rebuild; every batch takes the incremental path (the
/// max_delta_fraction fallback still forces a cold rebuild for batches
/// too large to benefit).
inline constexpr int kNeverColdRebuild = 0;

/// The convergence heuristic's ε(iter) model (paper Section IV-B).
enum class ThresholdModel {
  /// ε = p1 · e^(1 / (p2 · iter)): the paper's Eq. 7. For small p2 this
  /// decays steeply from p1·e^(1/p2) at iteration 1 toward an asymptotic
  /// *floor* of p1 — matching Fig. 2's shape, where the update fraction
  /// drops fast but keeps a few-percent tail out to 30 iterations. The
  /// floor matters: it keeps the top-gain vertices moving until real
  /// convergence instead of freezing the graph. Library default.
  kPaperEq7,
  /// ε = p1 · e^(−iter / p2): a pure exponential decay (to zero) —
  /// ablation variant showing why Eq. 7's floor is needed (without it,
  /// level-0 refinement freezes before the communities finish forming;
  /// see bench/ablation_threshold).
  kExponentialDecay,
  /// ε = 1 for every iteration: every positive-gain vertex moves — the
  /// "parallel without heuristic" baseline of Fig. 4.
  kNone,
};

/// Fraction of vertices allowed to move at inner iteration `iter` (1-based).
[[nodiscard]] inline double epsilon_of(ThresholdModel model, double p1, double p2,
                                       int iter) noexcept {
  double eps = 1.0;
  switch (model) {
    case ThresholdModel::kPaperEq7:
      eps = p1 * std::exp(1.0 / (p2 * static_cast<double>(iter)));
      break;
    case ThresholdModel::kExponentialDecay:
      eps = p1 * std::exp(-static_cast<double>(iter) / p2);
      break;
    case ThresholdModel::kNone:
      eps = 1.0;
      break;
  }
  return std::clamp(eps, 0.0, 1.0);
}

/// The refinement half of the configuration — every knob that shapes the
/// REFINE inner loop and the level cascade, grouped the way Katana's
/// LouvainClusteringPlan groups its clustering knobs. Lives nested inside
/// ParOptions (ParOptions::refine).
struct RefinePlan {
  // Convergence. The inner loop stops on zero moves or after
  // `stagnation_window` consecutive iterations with < q_tolerance
  // improvement (one stagnant low-ε iteration is normal, not convergence).
  double q_tolerance{1e-6};
  int max_inner_iterations{64};
  int max_levels{32};
  int stagnation_window{2};

  // The paper's heuristic (Section IV-B), Eq. 7 with (p1, p2) from our own
  // Fig. 2 regression (bench/fig2_heuristic_regression): ε(1) ≈ 0.84,
  // decaying to a ~3% floor — the same shape as the paper's LFR traces.
  ThresholdModel threshold{ThresholdModel::kPaperEq7};
  double p1{0.03};
  double p2{0.3};
  std::size_t gain_histogram_bins{512};

  // Out_Table maintenance cadence: a full state-propagation rebuild every
  // N inner iterations, with incremental retraction/assertion deltas in
  // between. kRebuildEveryIteration restores the legacy always-rebuild
  // behavior; kNeverRebuild ships deltas only. Independent of cadence, an
  // iteration falls back to a full rebuild whenever the delta would ship
  // at least as many records — so the delta path never loses on traffic.
  // On integer-weight graphs the two paths are bit-identical; on
  // irrational weights the cadence bounds floating-point drift (see
  // DESIGN.md).
  int full_rebuild_every{16};

  // Adaptive rebuild trigger: a full rebuild also fires when the
  // accumulated delta churn since the last rebuild — Σ delta_records /
  // In_Table entries, i.e. fractional Out_Table weight turnover — crosses
  // this threshold. Rebuilds react to actual drift pressure instead of a
  // blind iteration count; `full_rebuild_every` stays as the hard upper
  // bound. Derived from allreduced tallies, so every rank fires on the
  // same iteration. kAdaptiveRebuildOff (0) disables the trigger.
  double adaptive_rebuild_drift{2.0};

  // Resolution γ of generalized modularity (1 = Newman's Eq. 3). Larger
  // values favor more, smaller communities.
  double resolution{1.0};

  // --- Convergence heuristics beyond Eq. 7 (DESIGN.md decision 15). All
  // default off; with every knob at its default the engine is bit-identical
  // to the pre-heuristic baseline on all transports and maintenance paths.

  // Active-vertex scheduling (Sahu's unchanged-vertex pruning): after the
  // first delta propagation of a level, only vertices that moved last
  // iteration or absorbed a retraction/assertion patch (i.e. a neighbor's
  // community changed — the wakeup rides the existing PropMsg stream) are
  // rescanned by FIND; everyone else keeps gain 0 and cannot move. A full
  // cadence/traffic rebuild reactivates the whole partition, so the
  // incremental-vs-rebuilt exactness story is unchanged. Implies exact
  // min-label tie-breaking, so a join depends on the scores alone.
  bool active_scheduling{false};

  // Levels smaller than this refine unrestricted even under active
  // scheduling. Restricting moves to the frontier admits fewer movers per
  // round, stretching convergence across more iterations — worth it while
  // the FIND scan dominates, a net loss once the level graph is small
  // enough that per-iteration collective rounds dominate and scanning
  // everything is effectively free. 0 = prune every level.
  vid_t min_frontier_vertices{1024};

  // Minimum-label tie-breaking (Lu & Halappanavar): equal-gain candidates
  // resolve to the smallest community id under *exact* comparison, making
  // the chosen target independent of candidate enumeration order. The
  // default comparator prefers smaller ids only within a 1e-15 score band
  // (kept for bit-compat); this makes the tie rule exact.
  bool min_label_ties{false};

  // Vertex-following (Lu & Halappanavar): before the level-0 refine, fold
  // each vertex with exactly one distinct neighbor onto that neighbor
  // (its edge becomes an anchor self-loop, so modularity is unchanged),
  // and unfold at the end by assigning it the anchor's final community.
  // Degree-1 vertices always join their unique neighbor in an optimal
  // partition, so this removes them from every refine sweep. Applied on
  // the cold and warm one-shot paths; streamed ingestion and Session
  // applies skip it (the fold is a whole-graph preprocessing pass).
  bool vertex_following{false};

  // Threshold scaling (Sahu): level L refines against tolerance
  // max(q_tolerance, initial_tolerance / tolerance_decay^L) — coarse early
  // levels converge in fewer sweeps, and the cascade tightens geometrically
  // toward the final q_tolerance. The same per-level tolerance also floors
  // the histogram gain cutoff at tolerance / n_level, so sub-tolerance
  // shuffling doesn't keep iterations alive. 0 = off (every level uses
  // q_tolerance directly).
  double initial_tolerance{0.0};
  double tolerance_decay{10.0};

  /// Preset: every convergence heuristic on — the configuration the
  /// BM_FrontierAB bench and the quality-parity suite exercise. The
  /// 1e-3 starting tolerance is deliberate: 1e-2 converges fastest but
  /// costs ~0.02 modularity on the LFR reference inputs, while 1e-3
  /// combined with active scheduling matches (slightly beats) the
  /// stock-default quality at a fraction of the scan volume.
  [[nodiscard]] static RefinePlan heuristics() {
    RefinePlan plan;
    plan.active_scheduling = true;
    plan.min_label_ties = true;
    plan.vertex_following = true;
    plan.initial_tolerance = 1e-3;
    plan.tolerance_decay = 10.0;
    return plan;
  }

  /// Preset: bit-reproducible across maintenance paths — the Out_Table is
  /// rebuilt every iteration (no incremental drift even on irrational
  /// weights) and the churn trigger is off. The slowest, most auditable
  /// configuration; what the equivalence suites pin.
  [[nodiscard]] static RefinePlan deterministic() {
    RefinePlan plan;
    plan.full_rebuild_every = kRebuildEveryIteration;
    plan.adaptive_rebuild_drift = kAdaptiveRebuildOff;
    return plan;
  }

  /// Preset: lowest-traffic steady state — no cadence rebuilds at all;
  /// only the churn trigger and the records-shipped fallback schedule
  /// them. Results stay bit-identical on integer-weight graphs.
  [[nodiscard]] static RefinePlan fast() {
    RefinePlan plan;
    plan.full_rebuild_every = kNeverRebuild;
    return plan;
  }
};

/// The streaming half of the configuration — how plv::Session turns
/// EdgeDelta batches into new label epochs. Ignored by one-shot
/// plv::louvain runs.
struct StreamingPlan {
  // Cold-rebuild cadence, in batches: every Nth Session::apply discards
  // the warm state and re-runs from scratch on the updated edge list —
  // the bound on how far incremental refinement may drift from a cold
  // partition. kColdRebuildEveryBatch (1) makes every apply exactly a
  // cold run (the exact-equivalence mode); kNeverColdRebuild (0) never
  // schedules one.
  int rebuild_every_batches{16};

  // Dirty-region re-refinement: seed the disturbed-vertex frontier from
  // the endpoints of changed edges and let only frontier vertices move,
  // growing the frontier through the retraction/assertion patches their
  // moves ship (Lu & Halappanavar's disturbed set, Sahu's pruning).
  // false = warm-seeded but unrestricted refinement between cold
  // rebuilds. Requires the cyclic partition (vertex ownership must not
  // shift as the vertex count grows); Session enforces that at
  // construction.
  bool frontier{true};

  // Batches touching more than this fraction of the current edge list
  // take the cold path regardless of cadence — a graph-wide rewrite
  // disturbs everything, so incremental refinement would redo a cold
  // run's work with extra bookkeeping.
  double max_delta_fraction{0.25};

  /// Preset: every apply is a cold run on the updated graph —
  /// bit-identical to one-shot plv::louvain, at cold-start latency.
  [[nodiscard]] static StreamingPlan deterministic() {
    StreamingPlan plan;
    plan.rebuild_every_batches = kColdRebuildEveryBatch;
    plan.frontier = false;
    return plan;
  }

  /// Preset: minimum update latency — incremental frontier refinement on
  /// every batch, no cadence rebuilds (the size fallback still applies).
  [[nodiscard]] static StreamingPlan fast() {
    StreamingPlan plan;
    plan.rebuild_every_batches = kNeverColdRebuild;
    plan.frontier = true;
    return plan;
  }
};

struct ParOptions {
  int nranks{4};
  graph::PartitionKind partition{graph::PartitionKind::kCyclic};

  // Rank substrate: threads (default, shared-memory zero-copy), forked
  // processes over Unix-domain sockets, or a TCP mesh (multi-host capable).
  // The PLV_TRANSPORT environment variable, when set, overrides this for
  // every entry point that calls pml::resolve_transport — which all core
  // front doors do. Results are bit-identical across backends for fixed
  // seeds.
  pml::TransportKind transport{pml::TransportKind::kThread};

  // TCP mesh shape (kTcp only; see pml::TcpOptions). Both empty/-1 =
  // the loopback self-test fleet: the caller forks one rank per entry of
  // a 127.0.0.1 ephemeral-port mesh — zero configuration, what CI and
  // PLV_TRANSPORT=tcp use. For a real multi-host run, `hosts` carries one
  // "host:port" per rank (the same list on every host; index = rank) and
  // `tcp_rank` says which entry this process is. PLV_HOSTS / PLV_RANK
  // override these at run time, like PLV_TRANSPORT does for `transport`.
  std::vector<std::string> hosts{};
  int tcp_rank{-1};

  /// The pml launch options the configured TCP knobs describe.
  [[nodiscard]] pml::TcpOptions tcp_options() const {
    pml::TcpOptions tcp;
    tcp.hosts = hosts;
    tcp.self_rank = tcp_rank;
    return tcp;
  }

  // Hybrid composed-transport shape (kHybrid only; see pml::HybridOptions):
  // consecutive blocks of `ranks_per_proc` ranks share one forked process
  // as threads, and Comm runs the two-level hierarchical collectives over
  // that topology. 0 = auto (PLV_RANKS_PER_PROC, else 2). flat_collectives
  // keeps the composed substrate but publishes the trivial topology — the
  // flat-protocol A/B baseline (PLV_FLAT_COLLECTIVES=1 overrides).
  int ranks_per_proc{0};
  bool flat_collectives{false};

  /// The pml launch options the configured hybrid knobs describe.
  [[nodiscard]] pml::HybridOptions hybrid_options() const {
    pml::HybridOptions hybrid;
    hybrid.ranks_per_proc = ranks_per_proc;
    hybrid.flat_collectives = flat_collectives;
    return hybrid;
  }

  // Protocol verification: wrap every rank's transport in the
  // ValidatingTransport state-machine checker (pml/transport_check.hpp),
  // which enforces marker ordering, epoch contiguity, quiescence byte
  // conservation, chunk-pool ownership, and collective rank order —
  // throwing ProtocolError on the first violation. Defaults on in Debug
  // builds and off in optimized builds; the PLV_VALIDATE (or legacy
  // PLV_PARANOID) environment variable overrides this for every entry
  // point that calls pml::resolve_validate — which all core front doors
  // do. Costs one extra virtual hop plus a hash update per chunk; keep it
  // off for published benchmark numbers (the benches refuse to publish
  // otherwise).
  bool validate_transport{pml::kValidateTransportDefault};

  // Messaging: per-destination coalescing buffer, in records.
  // kAutoAggregatorCapacity sizes it from the fleet size and record width
  // (pml::auto_aggregator_capacity); explicit values are honored for
  // sweeps.
  std::size_t aggregator_capacity{kAutoAggregatorCapacity};

  // Free-list high-water mark, in chunk nodes per rank; trimmed at phase
  // boundaries. kUnboundedChunkPool = never trim.
  std::size_t chunk_pool_watermark{256};

  // Telemetry.
  bool record_trace{true};

  // The plan groups (see RefinePlan / StreamingPlan above). These and
  // `hosts` carry explicit `{}` so that designated-initializer construction
  // (`ParOptions{.nranks = 2}`) leaves no member without an initializer.
  RefinePlan refine{};
  StreamingPlan streaming{};

  /// Preset: the most auditable configuration — deterministic refine plan
  /// (rebuild every iteration) plus cold-rebuild-every-batch streaming.
  [[nodiscard]] static ParOptions deterministic() {
    ParOptions opts;
    opts.refine = RefinePlan::deterministic();
    opts.streaming = StreamingPlan::deterministic();
    return opts;
  }

  /// Preset: lowest latency — delta-only refine plan plus frontier
  /// streaming with no cadence rebuilds.
  [[nodiscard]] static ParOptions fast() {
    ParOptions opts;
    opts.refine = RefinePlan::fast();
    opts.streaming = StreamingPlan::fast();
    return opts;
  }

  /// Rejects inconsistent knob combinations with messages that name the
  /// offending field, the offered value, and the accepted range. Called
  /// by every core entry point before any rank is spawned, so a bad
  /// configuration fails on the caller instead of aborting a fleet.
  void validate() const {
    auto fail = [](const std::string& msg) { throw std::invalid_argument("ParOptions: " + msg); };
    if (nranks < 1) {
      fail("nranks must be >= 1, got " + std::to_string(nranks));
    }
    // Negated comparisons so NaN fails the check instead of slipping by.
    if (!(refine.q_tolerance >= 0.0)) {
      fail("q_tolerance must be >= 0, got " + std::to_string(refine.q_tolerance));
    }
    if (refine.max_inner_iterations < 1) {
      fail("max_inner_iterations must be >= 1, got " +
           std::to_string(refine.max_inner_iterations) +
           " (the inner loop needs at least one sweep)");
    }
    if (refine.max_levels < 1) {
      fail("max_levels must be >= 1, got " + std::to_string(refine.max_levels));
    }
    if (refine.stagnation_window < 1) {
      fail("stagnation_window must be >= 1, got " + std::to_string(refine.stagnation_window));
    }
    if (refine.threshold != ThresholdModel::kNone) {
      if (!(refine.p1 > 0.0)) {
        fail("p1 must be > 0 when a threshold model is active, got " + std::to_string(refine.p1) +
             " (use ThresholdModel::kNone to disable the heuristic)");
      }
      if (!(refine.p2 > 0.0)) {
        fail("p2 must be > 0 when a threshold model is active, got " + std::to_string(refine.p2) +
             " (use ThresholdModel::kNone to disable the heuristic)");
      }
    }
    if (refine.gain_histogram_bins < 1) {
      fail("gain_histogram_bins must be >= 1, got " + std::to_string(refine.gain_histogram_bins));
    }
    // Records are at most a few dozen bytes; this bound keeps
    // capacity * record_size far from std::size_t overflow while allowing
    // any buffer that could conceivably fit in memory.
    constexpr std::size_t kMaxAggregatorCapacity =
        std::numeric_limits<std::size_t>::max() / 256;
    if (aggregator_capacity > kMaxAggregatorCapacity) {
      fail("aggregator_capacity " + std::to_string(aggregator_capacity) +
           " would overflow the chunk byte size; use kAutoAggregatorCapacity (0) to auto-size");
    }
    if (refine.full_rebuild_every < 0) {
      fail("full_rebuild_every must be >= 0, got " + std::to_string(refine.full_rebuild_every) +
           " (kNeverRebuild = 0 ships deltas only, kRebuildEveryIteration = 1 always rebuilds)");
    }
    // Negated so NaN is rejected too.
    if (!(refine.adaptive_rebuild_drift >= 0.0)) {
      fail("adaptive_rebuild_drift must be >= 0, got " +
           std::to_string(refine.adaptive_rebuild_drift) +
           " (kAdaptiveRebuildOff = 0 disables the churn-driven rebuild trigger)");
    }
    if (streaming.rebuild_every_batches < 0) {
      fail("streaming.rebuild_every_batches must be >= 0, got " +
           std::to_string(streaming.rebuild_every_batches) +
           " (kNeverColdRebuild = 0 disables cadence cold rebuilds, "
           "kColdRebuildEveryBatch = 1 makes every apply a cold run)");
    }
    // Negated comparisons so NaN fails instead of slipping by.
    if (!(streaming.max_delta_fraction >= 0.0) || !(streaming.max_delta_fraction <= 1.0)) {
      fail("streaming.max_delta_fraction must be in [0, 1], got " +
           std::to_string(streaming.max_delta_fraction));
    }
    if (!(refine.resolution > 0.0) || !std::isfinite(refine.resolution)) {
      fail("resolution must be a positive finite value, got " + std::to_string(refine.resolution));
    }
    if (!(refine.initial_tolerance >= 0.0) || !std::isfinite(refine.initial_tolerance)) {
      fail("initial_tolerance must be >= 0 and finite, got " +
           std::to_string(refine.initial_tolerance) + " (0 disables threshold scaling)");
    }
    if (refine.initial_tolerance > 0.0 && !(refine.tolerance_decay > 1.0)) {
      fail("tolerance_decay must be > 1 when threshold scaling is on, got " +
           std::to_string(refine.tolerance_decay) +
           " (each level divides the tolerance by this factor)");
    }
    if (transport != pml::TransportKind::kThread &&
        transport != pml::TransportKind::kProc &&
        transport != pml::TransportKind::kTcp &&
        transport != pml::TransportKind::kHybrid) {
      fail("transport holds an invalid TransportKind value " +
           std::to_string(static_cast<int>(transport)) +
           " (valid: kThread, kProc, kTcp, kHybrid)");
    }
    // Hybrid topology shape: catch an inconsistent fleet here, on the
    // caller, instead of mid-fork inside the launcher.
    if (ranks_per_proc < 0) {
      fail("ranks_per_proc must be >= 1 (or 0 for auto), got " +
           std::to_string(ranks_per_proc));
    }
    if (transport != pml::TransportKind::kHybrid) {
      if (ranks_per_proc != 0) {
        fail("ranks_per_proc is set (" + std::to_string(ranks_per_proc) +
             ") but transport is not kHybrid; the group shape only applies to "
             "the hybrid composed backend");
      }
      if (flat_collectives) {
        fail("flat_collectives is set but transport is not kHybrid; the other "
             "backends publish the trivial topology and run the flat "
             "collectives already");
      }
    } else if (ranks_per_proc != 0 && nranks % ranks_per_proc != 0) {
      fail("ranks_per_proc " + std::to_string(ranks_per_proc) +
           " does not divide nranks " + std::to_string(nranks) +
           "; hybrid groups are equal consecutive blocks (one forked process "
           "hosting ranks_per_proc thread ranks each)");
    }
    // TCP mesh shape: catch a fleet that could never connect here, on the
    // caller, instead of five seconds later inside connect().
    if (tcp_rank < -1) {
      fail("tcp_rank must be -1 (loopback self-test) or a rank index, got " +
           std::to_string(tcp_rank));
    }
    if (transport != pml::TransportKind::kTcp) {
      if (!hosts.empty()) {
        fail("hosts is set (" + std::to_string(hosts.size()) +
             " entries) but transport is not kTcp; a host list only applies to "
             "the tcp backend (the hybrid backend forks its process groups "
             "locally — a multi-host hybrid tier is not supported)");
      }
      if (tcp_rank != -1) {
        fail("tcp_rank is set (" + std::to_string(tcp_rank) +
             ") but transport is not kTcp");
      }
    } else {
      if (tcp_rank >= 0 && hosts.empty()) {
        fail("transport is kTcp with tcp_rank " + std::to_string(tcp_rank) +
             " but no hosts; a multi-host run needs one host:port per rank "
             "(leave tcp_rank = -1 for the loopback self-test)");
      }
      if (!hosts.empty()) {
        if (static_cast<int>(hosts.size()) != nranks) {
          fail("hosts has " + std::to_string(hosts.size()) + " entries but nranks is " +
               std::to_string(nranks) + "; a tcp fleet needs one host:port per rank");
        }
        if (tcp_rank < 0) {
          fail("hosts is set but tcp_rank is -1; a multi-host tcp run must say "
               "which entry this process is (--rank / PLV_RANK)");
        }
        if (tcp_rank >= nranks) {
          fail("tcp_rank " + std::to_string(tcp_rank) + " out of range for " +
               std::to_string(nranks) + " ranks");
        }
        for (const std::string& entry : hosts) {
          try {
            (void)pml::parse_host_list(entry);
          } catch (const std::invalid_argument& e) {
            fail(std::string("hosts entry invalid: ") + e.what());
          }
        }
      }
    }
  }
};

}  // namespace plv::core
