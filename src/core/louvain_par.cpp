#include "core/louvain_par.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/sync.hpp"
#include "common/timer.hpp"
#include "core/session.hpp"
#include "hashing/row_store.hpp"
#include "pml/aggregator.hpp"

namespace plv::core {

namespace {

// ---------------------------------------------------------------------------
// Wire records. All 16 bytes, trivially copyable, no padding surprises.
// ---------------------------------------------------------------------------

/// STATE PROPAGATION: tells owner(v) that the in-edge (v,u) now points at
/// community c, i.e. Out_Table[(v,c)] += w (paper Algorithm 3). The same
/// record carries the *incremental* protocol: a set kRetractBit in `c`
/// turns the message into a retraction, Out_Table[(v, c&~bit)] -= w, so a
/// moved vertex ships one (retraction, assertion) pair per in-edge instead
/// of the whole table being rebuilt.
struct PropMsg {
  vid_t v;
  vid_t c;
  weight_t w;
};

/// Retraction flag in PropMsg::c. Community ids are vertex ids and the
/// engine holds vertex counts below 2^31 (common/types.hpp), so the top
/// bit is free; the delta path is disabled for (hypothetical) larger
/// levels anyway — see refine().
inline constexpr vid_t kRetractBit = 0x80000000u;

/// UPDATE: Σtot / member-count delta for community c, applied by owner(c).
/// The same record doubles as the global move tally: each rank closes the
/// streaming delta exchange by sending every rank one record with
/// c == kInvalidVid (never a real community id), dcount = its local move
/// count and dtot = its local delta-record count (exact in a double far
/// beyond any reachable table size). Receivers sum the sentinels, so the
/// tally needs no collective round of its own.
struct DeltaMsg {
  vid_t c;
  std::int32_t dcount;
  weight_t dtot;
};

/// Σin contribution for community c (Algorithm 4 lines 18-20).
struct SinMsg {
  vid_t c;
  std::int32_t pad{0};
  weight_t w;
};

/// Reply record of the Σtot fetch: community totals plus member count.
/// The member count feeds the singleton-swap guard (see
/// find_best_community); it is a consistent snapshot of the previous
/// iteration's state, like Σtot itself.
struct SigmaRep {
  weight_t sigma_tot;
  std::int64_t members;
};

/// GRAPH RECONSTRUCTION: coarse in-edge (src → dst) of weight w, delivered
/// to owner(dst) (paper Algorithm 5). Ids are already dense next-level ids.
struct EdgeMsg {
  vid_t src;
  vid_t dst;
  weight_t w;
};

/// Level-label gather: level vertex v belongs to dense community c.
struct LabelPair {
  vid_t v;
  vid_t c;
};

static_assert(sizeof(PropMsg) == 16 && sizeof(DeltaMsg) == 16 && sizeof(SinMsg) == 16 &&
              sizeof(EdgeMsg) == 16);

// ---------------------------------------------------------------------------
// Fixed engine constants. Each has one setting in use; none is a knob.
// ---------------------------------------------------------------------------

/// Chunk free-list high-water mark, in chunk nodes per rank, trimmed at
/// phase boundaries. Nonzero so the idle pool stays bounded between phases
/// (0 never trims); 256 is the setting every perfbench peak_rss_mb reading
/// was taken at, and no measurement has called for another.
inline constexpr std::size_t kChunkPoolWatermark = 256;

/// Bins of the allreduced ε → ΔQ̂ gain histogram (Section IV-B). The cutoff
/// lands on a bin edge, so ΔQ̂ resolves to 1/512 of the level's largest
/// gain, for one 512-counter allreduce per iteration.
inline constexpr std::size_t kGainHistogramBins = 512;

/// Levels smaller than this refine unrestricted even under active
/// scheduling. Restricting moves to the frontier admits fewer movers per
/// round and stretches convergence over more iterations: worth it while
/// the FIND scan dominates, a net loss once a level is small enough that
/// per-iteration collective rounds dominate and scanning every vertex is
/// effectively free (DESIGN.md decision 15).
inline constexpr vid_t kMinFrontierVertices = 1024;

/// Threshold scaling divides the tolerance by this factor per level, as
/// in Sahu's GVE-Louvain: coarse levels converge in few sweeps and the
/// cascade reaches q_tolerance within a few levels.
inline constexpr double kToleranceDecay = 10.0;

/// Per-community bookkeeping held by the community's owner.
struct CommInfo {
  weight_t sigma_tot{0};
  weight_t sigma_in{0};
  std::int64_t members{0};
};

// ---------------------------------------------------------------------------
// One rank's view of one level plus the phase machinery.
// ---------------------------------------------------------------------------

class RankEngine {
 public:
  RankEngine(pml::Comm& comm, const ParOptions& opts)
      : comm_(comm),
        opts_(opts),
        part_(opts.partition, 0, comm.nranks()),
        prop_agg_(comm, opts.aggregator_capacity),
        sigma_reqs_(static_cast<std::size_t>(comm.nranks())) {
    comm_.set_chunk_pool_watermark(kChunkPoolWatermark);
  }

  /// Builds level 0 from the (shared, read-only) global edge list: the
  /// rows of the owned vertices, an in-edge (v, u) per edge endpoint u this
  /// rank owns and a self-loop as A(u, u) = 2w. The rows depend only on
  /// the list, so a Session pass over its replica and a one-shot run over
  /// the same list start from the same level 0.
  void init_from_edges(const graph::EdgeList& edges, vid_t n) {
    part_ = graph::Partition1D(opts_.partition, n, comm_.nranks());
    n_level_ = n;
    level_index_ = 0;
    const int me = comm_.rank();
    in_.build(part_.local_count(me), [&](auto&& sink) {
      for (const Edge& e : edges) {
        if (e.u == e.v) {
          if (part_.owner(e.u) == me) sink(part_.to_local(e.u), e.u, 2 * e.w);
          continue;
        }
        if (part_.owner(e.v) == me) sink(part_.to_local(e.v), e.u, e.w);
        if (part_.owner(e.u) == me) sink(part_.to_local(e.u), e.v, e.w);
      }
    });
    init_level_state();
    two_m_ = comm_.allreduce_sum(local_strength_sum());
  }

  /// Restricts refinement to the disturbed-vertex frontier: only vertices
  /// seeded here (the endpoints of changed edges) — plus those a
  /// retraction/assertion patch later touches, which is exactly how a
  /// neighbor learns its community surroundings changed — may move;
  /// everyone else's gain is zeroed before the threshold histogram. Call
  /// after init_from_edges + warm_start. Level 0 only: reconstruction
  /// lifts the restriction, and run_levels stops after level 0 when the
  /// frontier never produced a move (an undisturbed partition cannot
  /// change at coarser levels either).
  void enable_frontier(const std::vector<vid_t>& seeds) {
    pinned_ = true;
    restricted_ = true;
    frontier_was_on_ = true;
    active_.assign(label_.size(), 0);
    const int me = comm_.rank();
    for (vid_t v : seeds) {
      if (v < n_level_ && part_.owner(v) == me) active_[part_.to_local(v)] = 1;
    }
  }

  [[nodiscard]] bool frontier_was_enabled() const noexcept { return frontier_was_on_; }
  [[nodiscard]] std::uint64_t last_level_moves() const noexcept { return level_moves_; }

  /// Re-seeds the community state from a prior partition (warm start).
  /// Must run after init_from_edges/init_from_slice: ownership arrays are
  /// already in place; only labels and the community store change. The
  /// Σtot request bookkeeping need not be touched here — the level's first
  /// propagation is always a full rebuild, which re-derives it.
  void warm_start(const std::vector<vid_t>& initial_labels) {
    assert(initial_labels.size() >= n_level_);
    const int me = comm_.rank();
    for (vid_t l = 0; l < static_cast<vid_t>(label_.size()); ++l) {
      label_[l] = initial_labels[part_.to_global(me, l)];
      assert(label_[l] < n_level_);
    }
    // Rebuild Σtot / member counts at the community owners.
    comms_.clear();
    std::vector<std::vector<DeltaMsg>> deltas(static_cast<std::size_t>(comm_.nranks()));
    for (vid_t l = 0; l < static_cast<vid_t>(label_.size()); ++l) {
      deltas[static_cast<std::size_t>(part_.owner(label_[l]))].push_back(
          DeltaMsg{label_[l], +1, strength_[l]});
    }
    const auto incoming = comm_.exchange(deltas);
    for (const DeltaMsg& d : incoming) {
      CommInfo& info = comms_.ref(d.c);
      info.sigma_tot += d.dtot;
      info.members += d.dcount;
    }
  }

  /// Builds level 0 from this rank's slice of a distributed edge stream:
  /// every in-edge is routed to its owner through the aggregators
  /// (records written straight into pooled chunks; the drain blocks on the
  /// mailbox instead of spinning on collectives), so no rank ever
  /// materializes the global edge list. A slice endpoint outside [0, n)
  /// throws before any record ships: ownership and local indices are
  /// only defined inside the vertex range.
  void init_from_slice(const graph::EdgeList& slice, vid_t n) {
    for (const Edge& e : slice) {
      if (e.u >= n || e.v >= n) {
        throw std::invalid_argument("louvain: stream slice edge (" + std::to_string(e.u) +
                                    ", " + std::to_string(e.v) +
                                    ") names a vertex outside n_vertices = " +
                                    std::to_string(n));
      }
    }
    part_ = graph::Partition1D(opts_.partition, n, comm_.nranks());
    n_level_ = n;
    level_index_ = 0;
    pml::Aggregator<EdgeMsg> agg(comm_, opts_.aggregator_capacity);
    for (const Edge& e : slice) {
      if (e.u == e.v) {
        agg.push(part_.owner(e.u), EdgeMsg{e.u, e.u, 2 * e.w});
        continue;
      }
      agg.push(part_.owner(e.v), EdgeMsg{e.u, e.v, e.w});
      agg.push(part_.owner(e.u), EdgeMsg{e.v, e.u, e.w});
    }
    agg.flush_all_final();
    build_in_from_drain();
    init_level_state();
    two_m_ = comm_.allreduce_sum(local_strength_sum());
  }

  /// One full level: propagation, refine (inner loop), reconstruction.
  /// Returns the level artifact (identical on every rank). Sets
  /// `compressed` to false when nothing merged.
  LouvainLevel run_level(bool& compressed) {
    WallTimer level_timer;
    LouvainLevel level;
    level.num_vertices = n_level_;
    level.tables = tables_;

    {
      ScopedPhase sp(timers_, phase::kStatePropagation);
      state_propagation_full();
    }
    // Σin was accumulated by the propagation drain itself; only the
    // owner exchange and the reduction remain.
    exchange_sigma_in();
    double q = comm_.allreduce_sum(local_modularity());

    {
      ScopedPhase sp(timers_, phase::kRefine);
      q = refine(level, q);
    }

    level.modularity = q;

    // Dense relabeling must happen before reconstruction so both the
    // reported labels and the next level's In_Table use the same ids.
    const std::vector<vid_t> relabel_keys = gather_surviving_communities();
    FlatMap<vid_t> dense(relabel_keys.size());
    for (std::size_t i = 0; i < relabel_keys.size(); ++i) {
      dense.ref(relabel_keys[i]) = static_cast<vid_t>(i);
    }
    level.num_communities = relabel_keys.size();
    level.labels = gather_level_labels(dense);

    {
      ScopedPhase sp(timers_, phase::kGraphReconstruction);
      graph_reconstruction(dense, static_cast<vid_t>(relabel_keys.size()));
    }

    compressed = static_cast<vid_t>(relabel_keys.size()) < level.num_vertices;
    level.seconds = level_timer.seconds();
    return level;
  }

  [[nodiscard]] const PhaseTimers& timers() const noexcept { return timers_; }
  [[nodiscard]] weight_t two_m() const noexcept { return two_m_; }
  [[nodiscard]] vid_t level_vertex_count() const noexcept { return n_level_; }

 private:
  struct Move {
    vid_t l;      // local index of the moved vertex
    vid_t from;
    vid_t to;
  };

  /// Global per-iteration tally, summed from the delta exchange's sentinels
  /// so every rank takes the same full-vs-delta propagation decision.
  struct MoveTally {
    std::uint64_t moves{0};
    std::uint64_t delta_records{0};  // records a delta propagation would ship
  };

  // -- level state ----------------------------------------------------------

  /// Builds the In_Table rows from the EdgeMsgs the aggregators route
  /// here. The ordered drain buffers them in source-rank order, so the
  /// rows, and the order equal neighbors combine in, do not depend on
  /// arrival timing or transport.
  void build_in_from_drain() {
    std::vector<EdgeMsg> arrived;
    comm_.drain_streaming_finalized<EdgeMsg>([&](int /*src*/,
                                                 std::span<const EdgeMsg> msgs) {
      arrived.insert(arrived.end(), msgs.begin(), msgs.end());
    });
    in_.build(part_.local_count(comm_.rank()), [&](auto&& sink) {
      for (const EdgeMsg& m : arrived) sink(part_.to_local(m.dst), m.src, m.w);
    });
  }

  /// Derives per-vertex arrays and community bookkeeping from the In_Table
  /// rows.
  void init_level_state() {
    const vid_t local_n = part_.local_count(comm_.rank());
    strength_.assign(local_n, 0.0);
    self_loop_.assign(local_n, 0.0);
    label_.resize(local_n);
    best_.assign(local_n, kInvalidVid);
    gain_.assign(local_n, 0.0);
    stay_score_.assign(local_n, 0.0);

    // Every engine table starts the level fresh, sized for this level
    // alone (DESIGN.md decision 17): no capacity, and so no probe order,
    // outlives its level. The Out_Table rows take the In_Table's layout:
    // a vertex's row never holds more entries than its In_Table degree
    // (DESIGN.md decision 18). The Σtot request tables start empty; the
    // level's first request rebuild and first FIND size them.
    out_.reset(in_.layout());
    comms_ = FlatMap<CommInfo>(static_cast<std::size_t>(local_n) + 1);
    sin_acc_ = FlatMap<weight_t>(static_cast<std::size_t>(local_n) + 1);
    comm_refs_ = FlatMap<std::uint32_t>();
    sigma_cache_ = FlatMap<SigmaRep>();
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- level setup, runs once per level
      const vid_t u = part_.to_global(comm_.rank(), l);
      label_[l] = u;
      for (const auto& e : in_.row(l)) {
        strength_[l] += e.w;
        if (e.c == u) self_loop_[l] = e.w;
      }
      comms_.ref(u) = CommInfo{strength_[l], 0.0, 1};
    }
    moves_.clear();
    iters_since_rebuild_ = 0;
    // What a full propagation costs, in records: one per In_Table entry,
    // summed over ranks. The per-iteration full-vs-delta decision compares
    // the (allreduced) delta cost against this. The rest of the level's
    // table footprint rides the same reduction.
    const TableFootprint local{in_.size(),
                               in_.capacity() + out_.capacity() +
                                   comms_.capacity() + sin_acc_.capacity() +
                                   comm_refs_.capacity() + sigma_cache_.capacity()};
    tables_ = comm_.allreduce(local, [](const TableFootprint& a, const TableFootprint& b) {
      return TableFootprint{a.in_entries + b.in_entries, a.slots + b.slots};
    });
    // A pinned (Session) frontier applies to the level it was seeded on.
    // Active-vertex scheduling re-arms on every level: all vertices start
    // schedulable and the first delta propagation shrinks the set. Small
    // levels opt out: restriction stretches convergence over more
    // iterations, a loss once a level is collective-bound.
    pinned_ = false;
    restricted_ = false;
    prune_ = opts_.refine.active_scheduling && n_level_ >= kMinFrontierVertices;
    if (prune_) {
      active_.assign(local_n, 1);
    } else {
      active_.clear();
    }
  }

  [[nodiscard]] weight_t local_strength_sum() const noexcept {
    weight_t s = 0;
    for (weight_t k : strength_) s += k;
    return s;
  }

  // -- STATE PROPAGATION (Algorithm 3) --------------------------------------

  /// Full rebuild: re-ships every in-edge (from the In_Table) under its
  /// owner's current label; the rows fill in drain order and seal() sorts
  /// and combines them. Re-derives the Σtot request bookkeeping, resetting
  /// any drift the incremental path accumulated on non-integer weights.
  /// The drain rebuilds Σin too: a record (v, c, w) with label(v) == c is
  /// a Σin contribution.
  void state_propagation_full() {
    out_.clear();
    sin_acc_.reset(label_.size() + 1);
    const vid_t local_n = static_cast<vid_t>(label_.size());
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- a full rebuild ships every in-edge by definition
      const vid_t c = label_[l];
      for (const auto& e : in_.row(l)) prop_agg_.push(part_.owner(e.c), PropMsg{e.c, c, e.w});
    }
    prop_agg_.flush_all_final();
    comm_.drain_streaming_finalized<PropMsg>([&](int /*src*/,
                                                 std::span<const PropMsg> msgs) {
      for (const PropMsg& m : msgs) {
        const vid_t lv = part_.to_local(m.v);
        out_.append(lv, m.c, m.w);
        if (label_[lv] == m.c) sin_acc_.ref(m.c) += m.w;
      }
    });
    out_.seal();
    rebuild_sigma_requests();
    iters_since_rebuild_ = 0;
    drift_accum_ = 0.0;
    // A rebuild voids the pruned frontier's "nothing changed near me"
    // premise: reactivate everything. (Pinned Session frontiers are the
    // caller's dirty-region contract; the level's first rebuild must not
    // clobber their seeds.)
    if (prune_ && !pinned_) {
      std::fill(active_.begin(), active_.end(), std::uint8_t{1});
      restricted_ = false;
    }
  }

  /// Incremental maintenance: ships one (retraction, assertion) pair per
  /// in-edge of each vertex that moved this iteration; receivers patch
  /// the Out_Table rows in place (count-based erase-on-zero keeps them as
  /// compact as a rebuild would). Requires every rank to have taken the
  /// same full-vs-delta decision — see refine().
  void state_propagation_delta() {
    if (prune_) {
      // Next iteration's frontier: this sweep's movers plus, via the patch
      // drain, everyone whose neighborhood they changed. A patch to (v, c)
      // *is* "a neighbor of v changed community", so the wakeup needs no
      // message of its own (DESIGN.md decision 15).
      restricted_ = true;
      std::fill(active_.begin(), active_.end(), std::uint8_t{0});
      for (const Move& mv : moves_) active_[mv.l] = 1;
    }
    for (const Move& mv : moves_) {
      assert(mv.from < kRetractBit && mv.to < kRetractBit);
      for (const auto& e : in_.row(mv.l)) {
        const int dest = part_.owner(e.c);
        prop_agg_.push(dest, PropMsg{e.c, mv.from | kRetractBit, e.w});
        prop_agg_.push(dest, PropMsg{e.c, mv.to, e.w});
      }
    }
    prop_agg_.flush_all_final();
    // Each patch also carries Σin forward: under the receiver's post-move
    // labels, a patch to (v, c) shifts Σin(c) exactly when label(v) == c.
    // With the move-time adjustments (update_communities) sin_acc_ lands on
    // what a fresh scan would compute — exactly for integer weights, within
    // one iteration's rounding otherwise (FIND re-derives it next time).
    comm_.drain_streaming_finalized<PropMsg>([&](int /*src*/,
                                                 std::span<const PropMsg> msgs) {
      for (const PropMsg& m : msgs) {
        const vid_t lv = part_.to_local(m.v);
        // A patched vertex may move from the next sweep on (Lu &
        // Halappanavar's disturbance propagation).
        if (restricted_) active_[lv] = 1;
        if ((m.c & kRetractBit) != 0) {
          const vid_t c = m.c & ~kRetractBit;
          if (out_.retract(lv, c, m.w)) ref_sub(c);
          if (label_[lv] == c) sin_acc_.ref(c) -= m.w;
        } else {
          if (out_.add(lv, m.c, m.w)) ref_add(m.c);
          if (label_[lv] == m.c) sin_acc_.ref(m.c) += m.w;
        }
      }
    });
    ++iters_since_rebuild_;
  }

  // -- Σtot request bookkeeping ---------------------------------------------

  /// The FIND phase must fetch Σtot for every community this rank's
  /// Out_Table references plus every owned vertex's own community. Rather
  /// than re-collecting that set each iteration (a walk of every row plus
  /// a sort), the engine keeps it persistent: comm_refs_ counts, per
  /// community, the Out_Table entries naming it plus the owned vertices
  /// labeled with it; sigma_reqs_ holds the per-owner sorted request
  /// lists; refs_dirty_ logs communities whose count touched zero or left
  /// it, and apply_sigma_request_changes() folds the log in with one
  /// linear merge per affected owner.
  void ref_add(vid_t c) {
    if (++comm_refs_.ref(c) == 1) refs_dirty_.push_back(c);
  }

  void ref_sub(vid_t c) {
    std::uint32_t* r = comm_refs_.find(c);
    assert(r != nullptr && *r > 0);
    if (--*r == 0) refs_dirty_.push_back(c);
  }

  /// Re-derives comm_refs_ and sigma_reqs_ from the freshly rebuilt
  /// Out_Table and current labels.
  void rebuild_sigma_requests() {
    comm_refs_.reset(out_.size() / 2 + label_.size() + 1);
    for (std::size_t l = 0; l < out_.rows(); ++l) {
      for (const auto& e : out_.row(l)) ++comm_refs_.ref(e.c);
    }
    for (vid_t c : label_) ++comm_refs_.ref(c);
    for (auto& reqs : sigma_reqs_) reqs.clear();
    comm_refs_.for_each([&](vid_t c, std::uint32_t&) {
      sigma_reqs_[static_cast<std::size_t>(part_.owner(c))].push_back(c);
    });
    for (auto& reqs : sigma_reqs_) std::sort(reqs.begin(), reqs.end());
    refs_dirty_.clear();
  }

  /// Folds the dirty log into the sorted request lists. A community is
  /// requested iff its reference count is positive *now* — entries that
  /// bounced through zero and back within one iteration net out here.
  void apply_sigma_request_changes() {
    if (refs_dirty_.empty()) return;
    std::sort(refs_dirty_.begin(), refs_dirty_.end());
    refs_dirty_.erase(std::unique(refs_dirty_.begin(), refs_dirty_.end()),
                      refs_dirty_.end());
    const std::size_t nranks = sigma_reqs_.size();
    std::vector<std::vector<vid_t>> add(nranks);
    std::vector<std::vector<vid_t>> del(nranks);
    for (vid_t c : refs_dirty_) {
      const std::uint32_t* r = comm_refs_.find(c);
      const bool needed = r != nullptr && *r > 0;
      const auto owner = static_cast<std::size_t>(part_.owner(c));
      const auto& reqs = sigma_reqs_[owner];
      const bool listed = std::binary_search(reqs.begin(), reqs.end(), c);
      if (needed && !listed) {
        add[owner].push_back(c);
      } else if (!needed && listed) {
        del[owner].push_back(c);
      }
      if (!needed && r != nullptr) comm_refs_.erase(c);  // no zombie zeros
    }
    refs_dirty_.clear();
    for (std::size_t r = 0; r < nranks; ++r) {
      if (add[r].empty() && del[r].empty()) continue;
      // add/del inherit the dirty log's sorted order.
      std::vector<vid_t> kept;
      std::set_difference(sigma_reqs_[r].begin(), sigma_reqs_[r].end(), del[r].begin(),
                          del[r].end(), std::back_inserter(kept));
      sigma_reqs_[r].clear();
      std::merge(kept.begin(), kept.end(), add[r].begin(), add[r].end(),
                 std::back_inserter(sigma_reqs_[r]));
    }
  }

  // -- FIND BEST COMMUNITY (Algorithm 4 lines 6-9) --------------------------

  /// Fetches Σtot for every community this rank's Out_Table references
  /// (streamed request/reply to the owners, no collective; the requests are
  /// on the wire while the σ-independent half of the stay score is
  /// computed), then walks each owned vertex's sorted row ONCE to fill
  /// best_/gain_ AND re-derive the Σin pre-aggregation: the entry
  /// (u, label(u)) is a Σin contribution and never a join candidate.
  void find_best_community() {
    apply_sigma_request_changes();
    const auto nranks = static_cast<std::size_t>(comm_.nranks());
    const vid_t local_n = static_cast<vid_t>(label_.size());

    // Vertices this sweep considers for a move (scanned-vertices telemetry).
    if (restricted_) {
      std::uint64_t count = 0;
      for (std::uint8_t a : active_) count += a;
      scanned_ = count;
    } else {
      scanned_ = static_cast<std::uint64_t>(local_n);
    }
    // σ-independent half of the stay score: w_stay = Out[(u, cu)] − self
    // loop. The σ term is folded in after the replies arrive.
    auto stay_init = [&] {
      for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- best_/gain_ reset must cover every vertex; the frontier skip below prunes the row lookups
        const vid_t cu = label_[l];
        best_[l] = cu;
        gain_[l] = 0.0;
        // Frontier pruning: vertices outside the disturbed region cannot
        // move this iteration (their gain stays 0), so their stay score is
        // never consumed — skip the row lookup.
        if (restricted_ && active_[l] == 0) {
          stay_score_[l] = 0.0;
          continue;
        }
        stay_score_[l] = out_.weight(l, cu) - self_loop_[l];
      }
    };
    auto build_reply = [&](const std::vector<vid_t>& reqs, std::vector<SigmaRep>& rep) {
      rep.clear();
      rep.reserve(reqs.size());
      for (vid_t c : reqs) {
        const CommInfo* info = comms_.find(c);
        rep.push_back(info == nullptr ? SigmaRep{0, 0}
                                      : SigmaRep{info->sigma_tot, info->members});
      }
    };

    std::size_t total_reqs = 0;
    for (const auto& reqs : sigma_reqs_) total_reqs += reqs.size();

    if (req_in_.size() != nranks) req_in_.resize(nranks);
    for (auto& reqs : req_in_) reqs.clear();
    if (replies_.size() != nranks) replies_.resize(nranks);
    // Requests stream to the owners while we run the stay-score loop.
    comm_.exchange_streaming<vid_t>(
        sigma_reqs_,
        [&](int src, std::span<const vid_t> reqs) {
          auto& dst = req_in_[static_cast<std::size_t>(src)];
          dst.insert(dst.end(), reqs.begin(), reqs.end());
        },
        stay_init);
    for (std::size_t r = 0; r < nranks; ++r) build_reply(req_in_[r], replies_[r]);
    sigma_cache_.reset(total_reqs + 1);
    // Replies from owner r answer sigma_reqs_[r] in order; a per-source
    // cursor keeps the pairing correct across chunk boundaries.
    reply_cursor_.assign(nranks, 0);
    comm_.exchange_streaming<SigmaRep>(replies_, [&](int src,
                                                     std::span<const SigmaRep> vals) {
      const auto& reqs = sigma_reqs_[static_cast<std::size_t>(src)];
      auto& cur = reply_cursor_[static_cast<std::size_t>(src)];
      for (const SigmaRep& v : vals) {
        assert(cur < reqs.size());
        sigma_cache_.ref(reqs[cur++]) = v;
      }
    });

    // The row walk: Σin accumulation (c == cu) + join search (c != cu).
    // Comparing joins by (w_uc − Σtot_c·k_u/2m) is equivalent to comparing
    // ΔQ (metrics/modularity.hpp); the final gain is the join-vs-stay
    // difference rescaled to true ΔQ units.
    const double gamma = opts_.refine.resolution;
    sin_acc_.reset(label_.size() + 1);
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- Σin re-derivation must count every vertex's own entry; inactive vertices skip the join search
      const vid_t cu = label_[l];
      // Frontier pruning (Sahu's unchanged-vertex idea): an undisturbed
      // vertex may not move this iteration, so it only contributes its
      // own-community entry to Σin; its best_ stays cu and its gain 0.
      if (restricted_ && active_[l] == 0) {
        if (const auto* own = out_.find(l, cu)) sin_acc_.ref(cu) += own->w;
        continue;
      }
      const SigmaRep* own = sigma_cache_.find(cu);
      assert(own != nullptr);
      const bool lone = own->members == 1;
      const weight_t k = strength_[l];
      // The σ term of the stay score: (w_stay) − γ(σ − k)k/2m.
      const double stay = stay_score_[l] - gamma * (own->sigma_tot - k) * k / two_m_;
      double best_score = stay;
      vid_t best = cu;
      for (const auto& e : out_.row(l)) {
        const vid_t c = e.c;
        if (c == cu) {
          sin_acc_.ref(c) += e.w;
          continue;
        }
        const SigmaRep* target = sigma_cache_.find(c);
        assert(target != nullptr);
        // Singleton-swap guard (Lu et al. [11], cited by the paper): when a
        // lone vertex considers joining another singleton community, only
        // the smaller-labeled side may move. Without it, synchronous
        // updates let pairs of singletons swap communities forever — the
        // oscillation Section III warns about.
        if (lone && target->members == 1 && c > cu) continue;
        const double score = e.w - gamma * target->sigma_tot * k / two_m_;
        // Minimum-label tie-breaking (Lu & Halappanavar): an equal score
        // resolves to the smaller id under exact comparison, so the target
        // does not depend on candidate enumeration order.
        if (score > best_score || (score == best_score && c < best)) {
          best_score = score;
          best = c;
        }
      }
      best_[l] = best;
      gain_[l] = best == cu ? 0.0 : 2.0 * (best_score - stay) / two_m_;
    }
  }

  // -- threshold selection (Section IV-B) -----------------------------------

  /// Translates ε(iter) into the global gain cutoff ΔQ̂ via an allreduced
  /// histogram of positive gains. A single pass over gain_ collects the
  /// positive values (into a persistent buffer) together with the local
  /// max, so the histogram fill re-reads a compact array instead of
  /// walking the full gain vector a second time; the histogram and the
  /// reduction scratch are persistent too — no steady-state allocation.
  [[nodiscard]] double gain_cutoff(int iter, double& eps_out) {
    const RefinePlan& plan = opts_.refine;
    const double eps = epsilon_of(plan.threshold, plan.p1, plan.p2, iter);
    eps_out = eps;
    double local_max = 0.0;
    pos_gains_.clear();
    for (double g : gain_) {
      if (g > 0.0) {
        local_max = std::max(local_max, g);
        pos_gains_.push_back(g);
      }
    }
    struct MaxCount {
      double max;
      std::uint64_t count;
    };
    const auto agg = comm_.allreduce(
        MaxCount{local_max, pos_gains_.size()}, [](const MaxCount& a, const MaxCount& b) {
          return MaxCount{a.max < b.max ? b.max : a.max, a.count + b.count};
        });
    if (agg.count == 0 || agg.max <= 0.0) return -1.0;  // signals "no mover"
    if (eps >= 1.0) return 0.0;                         // all positive gains move

    hist_.reset(0.0, agg.max, kGainHistogramBins);
    for (double g : pos_gains_) hist_.add(g);
    comm_.allreduce_vec_sum(hist_.counts(), hist_scratch_);

    // ε is a fraction of *all* level vertices (the paper sorts ΔQ_u over
    // V); convert to a fraction of the positive-gain population.
    const double budget = eps * static_cast<double>(n_level_);
    const double frac = std::min(1.0, budget / static_cast<double>(agg.count));
    return hist_.top_fraction_cutoff(frac);
  }

  // -- UPDATE COMMUNITY INFORMATION (Algorithm 4 lines 13-15) ---------------

  /// Moves every owned vertex whose gain clears the cutoff; ships Σtot and
  /// member-count deltas to the community owners; records the move list
  /// the delta propagation would replay. Returns the global tally.
  ///
  /// Each move also carries the local Σin pre-aggregation forward: row
  /// (u, from) stops counting toward Σin(from) and row (u, to) starts
  /// counting toward Σin(to) — both against the *pre-propagation* rows
  /// the FIND walk just read; the propagation drain patches in the edge
  /// re-pointing afterwards (see state_propagation_delta).
  [[nodiscard]] MoveTally update_communities(double cutoff) {
    delta_out_.resize(static_cast<std::size_t>(comm_.nranks()));
    for (auto& dest : delta_out_) dest.clear();
    auto& deltas = delta_out_;
    MoveTally local;
    moves_.clear();
    if (cutoff >= 0.0) {
      const vid_t local_n = static_cast<vid_t>(label_.size());
      for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- gain_ is dense; pruned vertices hold gain 0 and fall to the first branch
        if (gain_[l] <= 0.0 || gain_[l] < cutoff) continue;
        const vid_t from = label_[l];
        const vid_t to = best_[l];
        if (from == to) continue;
        label_[l] = to;
        moves_.push_back(Move{l, from, to});
        ref_sub(from);
        ref_add(to);
        sin_acc_.ref(from) -= out_.weight(l, from);
        sin_acc_.ref(to) += out_.weight(l, to);
        deltas[static_cast<std::size_t>(part_.owner(from))].push_back(
            DeltaMsg{from, -1, -strength_[l]});
        deltas[static_cast<std::size_t>(part_.owner(to))].push_back(
            DeltaMsg{to, +1, strength_[l]});
        ++local.moves;
        local.delta_records += 2 * in_.row(l).size();
      }
    }
    // The global move tally piggybacks on the delta exchange itself:
    // every rank appends one sentinel (c == kInvalidVid) per peer with
    // its local counts, and the ordered drain sums them — no separate
    // allreduce round. Both counts are integers, exact in a double far
    // beyond any reachable size.
    for (auto& dest : deltas) {
      dest.push_back(DeltaMsg{kInvalidVid, static_cast<std::int32_t>(local.moves),
                              static_cast<weight_t>(local.delta_records)});
    }
    MoveTally global;
    comm_.exchange_streaming<DeltaMsg>(
        deltas, [&](int /*src*/, std::span<const DeltaMsg> msgs) {
          for (const DeltaMsg& d : msgs) {
            if (d.c == kInvalidVid) {
              global.moves += static_cast<std::uint64_t>(d.dcount);
              global.delta_records += static_cast<std::uint64_t>(d.dtot);
              continue;
            }
            CommInfo& info = comms_.ref(d.c);
            info.sigma_tot += d.dtot;
            info.members += d.dcount;
          }
        });
    return global;
  }

  // -- Σin + modularity (Algorithm 4 lines 18-25) ----------------------------

  /// Ships the local Σin pre-aggregation (sin_acc_, maintained by the
  /// FIND row walk + move-time carry + propagation-drain patches) to the
  /// community owners. Local pre-aggregation keeps message volume at
  /// one record per (rank, community) pair.
  void exchange_sigma_in() {
    comms_.for_each([](vid_t, CommInfo& info) { info.sigma_in = 0.0; });
    sin_out_.resize(static_cast<std::size_t>(comm_.nranks()));
    for (auto& dest : sin_out_) dest.clear();
    sin_acc_.for_each([&](vid_t c, weight_t& w) {
      sin_out_[static_cast<std::size_t>(part_.owner(c))].push_back(SinMsg{c, 0, w});
    });
    comm_.exchange_streaming<SinMsg>(
        sin_out_, [&](int /*src*/, std::span<const SinMsg> msgs) {
          for (const SinMsg& m : msgs) comms_.ref(m.c).sigma_in += m.w;
        });
  }

  /// This rank's modularity contribution (sum over owned communities);
  /// the caller reduces it — standalone or merged with other per-iteration
  /// scalars into one combined allreduce (see refine).
  [[nodiscard]] double local_modularity() const {
    double q_local = 0.0;
    comms_.for_each([&](vid_t, const CommInfo& info) {
      if (info.members <= 0) return;
      const double tot = info.sigma_tot / two_m_;
      q_local += info.sigma_in / two_m_ - opts_.refine.resolution * tot * tot;
    });
    return q_local;
  }

  // -- REFINE (Algorithm 4) ---------------------------------------------------

  /// Per-level convergence tolerance under threshold scaling: level L
  /// refines against max(q_tolerance, initial_tolerance / 10^L), so the
  /// coarse early levels converge in fewer sweeps and the cascade tightens
  /// geometrically toward the final tolerance (Sahu's threshold scaling).
  /// With initial_tolerance = 0 (default) this is exactly q_tolerance.
  [[nodiscard]] double level_tolerance() const {
    const RefinePlan& plan = opts_.refine;
    if (!(plan.initial_tolerance > 0.0)) return plan.q_tolerance;
    const double scaled = plan.initial_tolerance /
                          std::pow(kToleranceDecay, static_cast<double>(level_index_));
    return std::max(plan.q_tolerance, scaled);
  }

  /// Runs the level's inner loop and returns the Q of the labels it holds;
  /// level.stop records why the loop ended (the cap unless it broke out).
  double refine(LouvainLevel& level, double q_initial) {
    const RefinePlan& plan = opts_.refine;
    level.stop = LevelStop::kIterationCap;
    double prev_q = q_initial;
    int stagnant = 0;
    level_moves_ = 0;
    const double level_tol = level_tolerance();
    // The same scaled tolerance also floors the histogram cutoff: a move
    // must clear its per-vertex share of the level tolerance, so
    // sub-tolerance shuffling can't keep coarse levels iterating. 0 when
    // scaling is off — the cutoff is then exactly the histogram's.
    const double gain_floor =
        plan.initial_tolerance > 0.0 && n_level_ > 0
            ? level_tol / static_cast<double>(n_level_)
            : 0.0;
    // The retraction encoding borrows PropMsg::c's top bit, so the delta
    // path needs community ids below 2^31 — always true for vid_t levels
    // in practice, but guard anyway so correctness never hinges on it.
    const bool delta_possible = n_level_ < kRetractBit;
    for (int iter = 1; iter <= plan.max_inner_iterations; ++iter) {
      WallTimer t;
      find_best_community();
      const std::uint64_t scanned_local = scanned_;
      const double find_s = t.seconds();
      timers_.add(phase::kFindBestCommunity, find_s);

      t.reset();
      double eps = 1.0;
      double cutoff = gain_cutoff(iter, eps);
      // Same allreduced inputs on every rank, so the floored cutoff is
      // globally consistent; -1 (no mover anywhere) passes through.
      if (cutoff >= 0.0 && gain_floor > cutoff) cutoff = gain_floor;
      timers_.add(phase::kGainCutoff, t.seconds());

      t.reset();
      const MoveTally moved = update_communities(cutoff);
      level_moves_ += moved.moves;
      const double update_s = t.seconds();
      timers_.add(phase::kUpdateCommunity, update_s);

      // Full-vs-delta is a *global* decision (receivers must know whether
      // to clear the Out_Table), taken from allreduced inputs: rebuild on
      // the cadence, when churn since the last rebuild crosses the adaptive
      // drift threshold, or when the delta would ship at least as many
      // records as a rebuild.
      const double churn =
          tables_.in_entries > 0
              ? static_cast<double>(moved.delta_records) /
                    static_cast<double>(tables_.in_entries)
              : 0.0;
      // A pinned (Session) frontier forces the delta path: a rebuild costs
      // O(|In_Table|), the cold-start term the re-refine exists to avoid,
      // and only patches grow the disturbed set. Active scheduling keeps
      // cadence rebuilds: they bound both FP drift and the pruning.
      const bool rebuild_due =
          !pinned_ &&
          ((plan.full_rebuild_every > 0 &&
            iters_since_rebuild_ + 1 >= plan.full_rebuild_every) ||
           (plan.adaptive_rebuild_drift > kAdaptiveRebuildOff &&
            drift_accum_ + churn >= plan.adaptive_rebuild_drift));
      const bool delta_wins =
          delta_possible &&
          (pinned_ || moved.delta_records < tables_.in_entries);
      t.reset();
      const std::uint64_t sent_before = comm_.stats().records_sent;
      if (rebuild_due || !delta_wins) {
        state_propagation_full();  // resets drift_accum_
      } else {
        drift_accum_ += churn;
        state_propagation_delta();
      }
      const std::uint64_t prop_sent = comm_.stats().records_sent - sent_before;
      const double prop_s = t.seconds();
      timers_.add(phase::kStatePropagation, prop_s);

      t.reset();
      exchange_sigma_in();
      // One combined reduction closes the iteration: modularity and the
      // trace's propagation + scan volumes share a single collective
      // round. The q sum visits ranks in ascending order, exactly like
      // allreduce_sum.
      struct IterStats {
        double q;
        std::uint64_t prop_sent;
        std::uint64_t scanned;
      };
      const auto stats = comm_.allreduce(
          IterStats{local_modularity(), prop_sent, scanned_local},
          [](const IterStats& a, const IterStats& b) {
            return IterStats{a.q + b.q, a.prop_sent + b.prop_sent, a.scanned + b.scanned};
          });
      timers_.add(phase::kSigmaInExchange, t.seconds());
      const double q = stats.q;

      level.trace.moved_fraction.push_back(static_cast<double>(moved.moves) /
                                           static_cast<double>(n_level_));
      level.trace.modularity.push_back(q);
      level.trace.epsilon.push_back(eps);
      level.trace.gain_cutoff.push_back(cutoff);
      level.trace.find_seconds.push_back(find_s);
      level.trace.update_seconds.push_back(update_s);
      level.trace.prop_seconds.push_back(prop_s);
      level.trace.prop_records.push_back(stats.prop_sent);
      level.trace.scanned_vertices.push_back(stats.scanned);

      // One stagnant iteration can just mean a low-ε round; require a
      // window of them (all ranks see the same global q/moves, so the
      // decision is uniform). Under threshold scaling the window tests the
      // level's scaled tolerance instead of the final one.
      stagnant = q - prev_q < level_tol ? stagnant + 1 : 0;
      prev_q = q;  // report the Q of the labels we actually hold
      if (moved.moves == 0) {
        level.stop = LevelStop::kNoMoves;
        break;
      }
      if (stagnant >= plan.stagnation_window) {
        level.stop = LevelStop::kStagnated;
        break;
      }
    }
    return prev_q;
  }

  // -- GRAPH RECONSTRUCTION (Algorithm 5) -------------------------------------

  /// Sorted global list of communities that still have members.
  [[nodiscard]] std::vector<vid_t> gather_surviving_communities() {
    std::vector<vid_t> mine;
    comms_.for_each([&](vid_t c, const CommInfo& info) {
      if (info.members > 0) mine.push_back(c);
    });
    std::sort(mine.begin(), mine.end());
    std::vector<vid_t> all = comm_.allgatherv(mine);
    std::sort(all.begin(), all.end());
    return all;
  }

  /// Full label vector of this level (dense community ids), identical on
  /// every rank.
  [[nodiscard]] std::vector<vid_t> gather_level_labels(const FlatMap<vid_t>& dense) {
    std::vector<LabelPair> mine;
    mine.reserve(label_.size());
    for (vid_t l = 0; l < static_cast<vid_t>(label_.size()); ++l) {
      const vid_t* c = dense.find(label_[l]);
      assert(c != nullptr);
      mine.push_back(LabelPair{part_.to_global(comm_.rank(), l), *c});
    }
    const std::vector<LabelPair> all = comm_.allgatherv(mine);
    std::vector<vid_t> labels(n_level_, 0);
    for (const LabelPair& p : all) labels[p.v] = p.c;
    return labels;
  }

  /// Rewrites the Out_Table rows into the next level's In_Table
  /// (all-to-all) and re-derives the level state.
  void graph_reconstruction(const FlatMap<vid_t>& dense, vid_t next_n) {
    const graph::Partition1D next_part(opts_.partition, next_n, comm_.nranks());
    pml::Aggregator<EdgeMsg> agg(comm_, opts_.aggregator_capacity);
    const vid_t local_n = static_cast<vid_t>(label_.size());
    for (vid_t l = 0; l < local_n; ++l) {  // plv-lint: allow(refine-full-scan) -- reconstruction ships every Out_Table entry once per level
      const vid_t* src = dense.find(label_[l]);
      assert(src != nullptr);
      for (const auto& e : out_.row(l)) {
        const vid_t* dst = dense.find(e.c);
        assert(dst != nullptr);
        agg.push(next_part.owner(*dst), EdgeMsg{*src, *dst, e.w});
      }
    }
    agg.flush_all_final();
    part_ = next_part;
    n_level_ = next_n;
    build_in_from_drain();
    init_level_state();
    ++level_index_;  // the next refine round runs one tolerance step tighter
  }

  // -- members ---------------------------------------------------------------

  pml::Comm& comm_;
  const ParOptions& opts_;
  graph::Partition1D part_;
  vid_t n_level_{0};
  weight_t two_m_{0};

  // In_Table: row l holds the (neighbor v, count, w) of every in-edge
  // (v, u_l), sorted by v; built once per level (DESIGN.md decision 1).
  hashing::RowStore in_;
  // Out_Table: row l over the In_Table's layout (DESIGN.md decision 18).
  hashing::RowStore out_;

  // Per owned vertex (local index):
  std::vector<weight_t> strength_;
  std::vector<weight_t> self_loop_;
  std::vector<vid_t> label_;
  std::vector<vid_t> best_;
  std::vector<double> gain_;
  std::vector<double> stay_score_;

  // Moves of the current iteration, replayed by the delta propagation.
  std::vector<Move> moves_;
  int iters_since_rebuild_{0};
  TableFootprint tables_;  // this level's, at its start, summed over ranks

  // Frontier: while restricted_ is on, only vertices with a set active_
  // bit may move, and the delta drain sets the bit of every patched vertex
  // (the neighbor wakeup). Fed by the pinned Session frontier (pinned_;
  // seeded from changed edges, delta path only, level 0 only) and by
  // active-vertex scheduling (prune_; every level, movers ∪ patched, a
  // full rebuild reactivates all). frontier_was_on_ outlives the level so
  // run_levels can stop after a no-op level 0 (level_moves_ counts its
  // moves); scanned_ counts the vertices the last FIND searched.
  bool pinned_{false};
  bool restricted_{false};
  bool prune_{false};
  bool frontier_was_on_{false};
  std::vector<std::uint8_t> active_;
  std::uint64_t level_moves_{0};
  std::uint64_t scanned_{0};
  // Level counter for threshold scaling: 0 on every fresh ingestion,
  // incremented by each reconstruction.
  int level_index_{0};
  // Out_Table turnover since the last full rebuild (Σ delta_records /
  // tables_.in_entries), from allreduced tallies: the adaptive trigger.
  double drift_accum_{0.0};

  // Persistent propagation aggregator (chunks reused across phases).
  pml::Aggregator<PropMsg> prop_agg_;

  FlatMap<CommInfo> comms_;        // owned communities
  FlatMap<SigmaRep> sigma_cache_;  // fetched Σtot + members
  FlatMap<weight_t> sin_acc_;      // Σin pre-aggregation, carried forward

  // Σtot request bookkeeping (see the comment block above ref_add).
  FlatMap<std::uint32_t> comm_refs_;
  std::vector<std::vector<vid_t>> sigma_reqs_;
  std::vector<vid_t> refs_dirty_;

  // Persistent per-iteration scratch (steady state allocates nothing):
  // the positive-gain compaction, the gain histogram + its reduction
  // scratch, and the streaming Σtot request/reply staging.
  std::vector<double> pos_gains_;
  Histogram hist_{0.0, 0.0, 1};
  std::vector<std::uint64_t> hist_scratch_;
  std::vector<std::vector<vid_t>> req_in_;
  std::vector<std::vector<SigmaRep>> replies_;
  std::vector<std::size_t> reply_cursor_;
  std::vector<std::vector<SinMsg>> sin_out_;
  std::vector<std::vector<DeltaMsg>> delta_out_;

  PhaseTimers timers_;
};

// ---------------------------------------------------------------------------
// Vertex-following (RefinePlan::vertex_following): fold every vertex with
// exactly one distinct neighbor onto that neighbor before the fleet runs,
// then hand it the anchor's final community afterwards. A degree-1 vertex
// always sits in its unique neighbor's community in an optimal partition
// (detaching it can only lose its edge's internal weight), so the refine
// sweeps need never consider it.
// ---------------------------------------------------------------------------

struct FoldPlan {
  /// anchor[v] == kInvalidVid when v keeps its place; otherwise v was
  /// folded and follows anchor[v]'s final community.
  std::vector<vid_t> anchor;
  graph::EdgeList edges;  // the folded list the fleet actually runs on
  bool any{false};
};

/// Decides the fold in ONE pass over the original degrees — folding is
/// deliberately not iterated: peeling a path end-to-end would glue whole
/// chains into one community (a 4-chain's optimum is two pairs, not one
/// quad). A leaf's edge turns into an anchor self-loop of the same weight,
/// which preserves every vertex strength, Σin, and 2m, so the folded
/// graph's modularity equals the original's under the unfolded labels; the
/// leaf itself survives as an isolated zero-strength singleton no sweep
/// revisits. Mutual leaf pairs fold the larger id onto the smaller, and an
/// anchor is never itself folded (a vertex with a folded-away neighbor has
/// either only that neighbor — the mutual case — or at least two distinct
/// neighbors), so the unfold is single-step.
///
/// A leaf carrying a self-loop is NOT folded. The always-join guarantee
/// is ΔQ = (w/m)·(1 − Σtot(u)/2m) > 0 for a leaf whose strength is its
/// one edge; a self-loop inflates the leaf's strength (the Σtot penalty
/// of joining) while the attachment gain stays w, so staying singleton
/// can be optimal — e.g. a self-looped pendant on a tight cycle.
FoldPlan plan_vertex_following(const graph::EdgeList& edges, vid_t n) {
  FoldPlan plan;
  plan.anchor.assign(n, kInvalidVid);
  std::vector<vid_t> nbr(n, kInvalidVid);
  std::vector<std::uint8_t> multi(n, 0);
  std::vector<std::uint8_t> loop(n, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) {  // a self-loop is not a neighbor, but bars folding
      loop[e.u] = 1;
      continue;
    }
    const auto touch = [&](vid_t a, vid_t b) {
      if (nbr[a] == kInvalidVid) {
        nbr[a] = b;
      } else if (nbr[a] != b) {
        multi[a] = 1;
      }
    };
    touch(e.u, e.v);
    touch(e.v, e.u);
  }
  for (vid_t v = 0; v < n; ++v) {
    if (nbr[v] == kInvalidVid || multi[v] != 0 || loop[v] != 0) continue;
    const vid_t u = nbr[v];
    const bool mutual = nbr[u] == v && multi[u] == 0 && loop[u] == 0;
    if (mutual && v < u) continue;  // the smaller id of a leaf pair anchors
    plan.anchor[v] = u;
    plan.any = true;
  }
  if (!plan.any) return plan;
  for (const Edge& e : edges) {
    const vid_t u = plan.anchor[e.u] != kInvalidVid ? plan.anchor[e.u] : e.u;
    const vid_t v = plan.anchor[e.v] != kInvalidVid ? plan.anchor[e.v] : e.v;
    plan.edges.add(u, v, e.w);
  }
  return plan;
}

/// Rewrites the fleet's result for the original graph: every folded vertex
/// takes its anchor's community in the final labels and in the level-0
/// label vector. The folded singletons' ghost communities become empty;
/// their dense ids stay in the id space (num_communities is the id-space
/// size, so the labels < num_communities invariant holds) and
/// Hierarchy::tree drops the now-empty nodes. The reported modularity
/// needs no correction — the fold preserves it exactly (see
/// plan_vertex_following).
void unfold_vertex_following(const FoldPlan& plan, Result& result) {
  if (!plan.any || result.levels.empty()) return;
  auto& l0 = result.levels.front();
  for (vid_t v = 0; v < static_cast<vid_t>(plan.anchor.size()); ++v) {
    const vid_t a = plan.anchor[v];
    if (a == kInvalidVid) continue;
    result.final_labels[v] = result.final_labels[a];
    l0.labels[v] = l0.labels[a];
  }
}

/// Shared post-ingestion driver: runs the level loop on an initialized
/// engine and assembles the (rank-identical) result.
Result run_levels(pml::Comm& comm, RankEngine& engine, vid_t n, const ParOptions& opts,
                     WallTimer& busy) {
  Result result;
  result.transport = comm.transport_name();
  result.final_labels.resize(n);
  if (engine.two_m() <= 0) {
    // Weightless graph: every vertex is its own community, Q = 0 by
    // convention (Eq. 3 is undefined at m = 0). Avoids NaNs downstream.
    std::iota(result.final_labels.begin(), result.final_labels.end(), vid_t{0});
    result.rank_seconds = comm.allgather(busy.seconds());
    return result;
  }
  std::iota(result.final_labels.begin(), result.final_labels.end(), vid_t{0});

  // All TrafficStats fields reduce together in one collective round
  // (they used to be five separate allreduces of skew per level).
  const auto sum_traffic = [&comm](const TrafficStats& local) {
    return comm.allreduce(local, [](const TrafficStats& a, const TrafficStats& b) {
      TrafficStats sum = a;
      sum += b;
      return sum;
    });
  };

  double prev_q = -2.0;  // below any attainable modularity
  for (int level_idx = 0; level_idx < opts.refine.max_levels; ++level_idx) {
    bool compressed = false;
    const TrafficStats level_start = comm.stats();
    LouvainLevel level = engine.run_level(compressed);
    // Per-level communication volume: this rank's delta over the level,
    // summed across ranks. (The reduction below counts toward the *next*
    // level's delta — one rank-identical collective of skew.)
    level.traffic = sum_traffic(traffic_delta(comm.stats(), level_start));

    const bool improved = level.modularity - prev_q >= opts.refine.q_tolerance;
    if (!improved && level_idx > 0) break;

    for (vid_t v = 0; v < n; ++v) {
      result.final_labels[v] = level.labels[result.final_labels[v]];
    }
    prev_q = level.modularity;
    result.final_modularity = level.modularity;
    result.levels.push_back(std::move(level));
    if (!compressed) break;
    // A frontier run whose disturbed region never produced a move left
    // the partition exactly as warm-seeded; the coarser levels were
    // already converged by the epoch that produced that seed, so stop
    // after level 0 instead of re-walking the whole hierarchy.
    if (level_idx == 0 && engine.frontier_was_enabled() && engine.last_level_moves() == 0) {
      break;
    }
  }

  // Aggregate telemetry. Phase timers reduce by max over ranks (the
  // critical path); traffic sums; wall time gathers per rank.
  PhaseTimers reduced;
  for (const auto& [name, secs] : engine.timers().items()) {
    reduced.add(name, comm.allreduce_max(secs));
  }
  result.timers = reduced;

  result.traffic = sum_traffic(comm.stats());
  result.rank_seconds = comm.allgather(busy.seconds());
  return result;
}

/// The one fleet launch behind plv::louvain. Validates the options,
/// resolves the transport, then runs on every rank: `init` builds level 0
/// on a fresh engine (from the shared edge list, plus a warm seed, or from
/// the rank's stream slice), then the level loop. Rank 0's result is
/// handed back; an empty graph returns without spawning a fleet.
Result launch_fleet(vid_t n, const ParOptions& opts,
                    const std::function<void(pml::Comm&, RankEngine&)>& init) {
  opts.validate();
  const pml::TransportKind kind = pml::resolve_transport(opts.transport);
  // Rank 0 (a fleet thread under the thread transport) hands its result
  // across to the launching thread; the guarded slot names that edge even
  // though Runtime::run's join already orders it.
  struct {
    plv::Mutex mu;
    Result value PLV_GUARDED_BY(mu);
  } result;
  {
    plv::MutexLock lock(result.mu);
    result.value.transport = pml::transport_kind_name(kind);
    if (n == 0) return std::move(result.value);
  }
  pml::Runtime::run(
      opts.nranks,
      [&](pml::Comm& comm) {
        WallTimer busy;
        RankEngine engine(comm, opts);
        init(comm, engine);
        Result local = run_levels(comm, engine, n, opts, busy);
        if (comm.rank() == 0) {
          plv::MutexLock lock(result.mu);
          result.value = std::move(local);
        }
      },
      kind, pml::resolve_validate(opts.validate_transport), opts.tcp_options(),
      opts.hybrid_options());
  plv::MutexLock lock(result.mu);
  return std::move(result.value);
}

/// Cold (no `initial_labels`) or warm one-shot run over a shared edge list.
/// Vertex-following is a whole-graph preprocessing pass, so it lives on the
/// launch side: the fleet runs the folded list (against the original
/// vertex count — folded vertices stay as isolated singletons, keeping ids
/// and ownership stable) and the unfold rewrites the result after the
/// ranks have joined.
Result edges_impl(const graph::EdgeList& edges, vid_t n_vertices,
                  const std::vector<vid_t>* initial_labels, const ParOptions& opts) {
  const vid_t n = std::max(n_vertices, edges.vertex_count());
  // Seeds taken before an EdgeDelta stay usable after it: vertices the
  // seed does not cover and labels referencing vanished vertices become
  // singletons instead of rejecting the whole seed.
  std::vector<vid_t> labels;
  if (initial_labels != nullptr) labels = normalize_warm_labels(*initial_labels, n);
  FoldPlan fold;
  const graph::EdgeList* run_edges = &edges;
  if (opts.refine.vertex_following && n > 0) {
    fold = plan_vertex_following(edges, n);
    if (fold.any) {
      run_edges = &fold.edges;
      // A folded vertex is an isolated ghost inside the fleet; seeding it
      // into a real community would inflate that community's member count
      // (which the singleton-swap guard consults), so its warm label
      // resets to self. The unfold reattaches it regardless of the seed.
      for (vid_t v = 0; v < static_cast<vid_t>(labels.size()); ++v) {
        if (fold.anchor[v] != kInvalidVid) labels[v] = v;
      }
    }
  }
  Result result = launch_fleet(n, opts, [&](pml::Comm&, RankEngine& engine) {
    engine.init_from_edges(*run_edges, n);
    if (initial_labels != nullptr) engine.warm_start(labels);
  });
  unfold_vertex_following(fold, result);
  return result;
}

/// One-shot run over a distributed edge stream: each rank ingests only
/// its own slice.
Result streamed_impl(const EdgeSliceFn& slice_of, vid_t n_vertices, const ParOptions& opts) {
  return launch_fleet(n_vertices, opts, [&](pml::Comm& comm, RankEngine& engine) {
    engine.init_from_slice(slice_of(comm.rank(), comm.nranks()), n_vertices);
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// The resident fleet body behind plv::Session (core/session.hpp). Every
// rank holds a patchable replica of the evolving edge list, from which
// every detection pass builds level 0; rank 0 — which every transport runs
// inside the calling process — doubles as the command pump.
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/// Fixed-size header of one broadcast fleet command.
struct WireCmd {
  std::uint32_t kind{0};
  vid_t n_floor{0};
  std::uint64_t seq{0};
};

/// Rank-0-sourced broadcast built from the one collective every transport
/// shares: peers contribute nothing, so the allgatherv concatenation *is*
/// rank 0's payload. Peers park here between batches — the fleet stays
/// warm with no polling on any transport.
template <typename T>
std::vector<T> bcast_from_root(pml::Comm& comm, std::vector<T> payload) {
  if (comm.rank() != 0) payload.clear();
  return comm.allgatherv(payload);
}

}  // namespace

void session_rank_body(pml::Comm& comm, SessionShared& shared) {
  const ParOptions& opts = shared.opts;
  const int me = comm.rank();
  const int nranks = comm.nranks();

  // ---- Resident per-rank state. ----
  graph::EdgeList edges;
  if (shared.init_stream != nullptr) {
    // Gather the stream's slices once: unlike one-shot streamed ingestion,
    // a Session patches its replica in place across batches, so every rank
    // must hold the materialized list.
    const graph::EdgeList slice = (*shared.init_stream)(me, nranks);
    const std::vector<Edge> mine(slice.begin(), slice.end());
    for (const Edge& e : comm.allgatherv(mine)) edges.add(e.u, e.v, e.w);
  } else {
    edges = shared.init_edges;
  }
  vid_t n = std::max(shared.init_n, edges.vertex_count());

  std::vector<vid_t> labels;  // latest full label vector (every rank)
  int batches_since_cold = 0;

  // One detection pass over the replica. The engine is built fresh per
  // pass because some of its state spans a whole pass (the phase timers,
  // the pinned-frontier flag run_levels consults). Level 0 is built from
  // the replica on every pass, cold or incremental, so it is exactly the
  // level 0 a one-shot run on the same list starts from.
  const auto detect = [&](const std::vector<vid_t>* warm,
                          const std::vector<vid_t>* frontier_seeds) {
    WallTimer busy;
    RankEngine engine(comm, opts);
    engine.init_from_edges(edges, n);
    if (warm != nullptr) engine.warm_start(*warm);
    if (frontier_seeds != nullptr) engine.enable_frontier(*frontier_seeds);
    return run_levels(comm, engine, n, opts, busy);
  };

  const auto publish = [&](std::uint64_t seq, const Result& r, bool incremental) {
    labels = r.final_labels;
    if (me != 0) return;
    auto snap = std::make_shared<LabelSnapshot>();
    snap->epoch = seq;
    snap->n_vertices = n;
    snap->num_communities =
        r.levels.empty() ? static_cast<std::size_t>(n) : r.levels.back().num_communities;
    snap->modularity = r.final_modularity;
    snap->incremental = incremental;
    snap->labels = r.final_labels;
    for (const LouvainLevel& level : r.levels) snap->tables.push_back(level.tables);
    {
      // Publish side of the snapshot contract (see SessionShared::snap):
      // the fully built snapshot is swapped in and the epoch bumped under
      // `mu`; the unlock is the release edge readers pair with.
      plv::MutexLock lock(shared.mu);
      shared.snap = std::move(snap);
      shared.completed = seq;
    }
    shared.cv.notify_all();
  };

  // ---- Epoch 0: the initial full run. ----
  {
    std::vector<vid_t> warm;
    const std::vector<vid_t>* seed = nullptr;
    if (!shared.init_labels.empty()) {
      warm = normalize_warm_labels(shared.init_labels, n);
      seed = &warm;
    }
    publish(0, detect(seed, nullptr), false);
  }

  // ---- The command pump. Only rank 0 (same process as the Session
  // handle on every transport) touches the shared queue; peers learn each
  // command through the broadcast. ----
  for (;;) {
    WireCmd cmd{};
    std::vector<Edge> ins;
    std::vector<Edge> del;
    if (me == 0) {
      plv::MutexLock lock(shared.mu);
      while (!shared.has_command) shared.cv.wait(shared.mu);
      shared.has_command = false;
      cmd = WireCmd{static_cast<std::uint32_t>(shared.command.kind),
                    shared.command.delta.n_vertices, shared.command.seq};
      ins.assign(shared.command.delta.inserts.begin(), shared.command.delta.inserts.end());
      del.assign(shared.command.delta.removals.begin(), shared.command.delta.removals.end());
    }
    cmd = bcast_from_root(comm, std::vector<WireCmd>{cmd}).front();
    ins = bcast_from_root(comm, std::move(ins));
    del = bcast_from_root(comm, std::move(del));
    if (cmd.kind == static_cast<std::uint32_t>(SessionCommand::Kind::kShutdown)) return;

    EdgeDelta delta;
    delta.n_vertices = cmd.n_floor;
    for (const Edge& e : ins) delta.inserts.add(e.u, e.v, e.w);
    for (const Edge& e : del) delta.removals.add(e.u, e.v, e.w);

    // Throws when a removal names no existing record — fleet-fatal, and
    // identical on every rank (same replica, same batch), so the whole
    // fleet fails the same way and Session::apply rethrows it.
    const std::size_t edges_before = edges.size();
    const vid_t new_n = std::max(n, apply_edge_delta(edges, delta));
    ++batches_since_cold;

    const bool cadence_due = opts.streaming.rebuild_every_batches > 0 &&
                             batches_since_cold >= opts.streaming.rebuild_every_batches;
    const bool too_big =
        edges_before == 0 ||
        static_cast<double>(delta.size()) >
            opts.streaming.max_delta_fraction * static_cast<double>(edges_before);
    // The incremental path needs the PropMsg retraction encoding (ids
    // below the bit). Either partition works: level 0 is rebuilt from the
    // replica on every pass, so shifted block ownership costs nothing.
    const bool incremental_capable = new_n < kRetractBit;

    n = new_n;
    if (cadence_due || too_big || !incremental_capable) {
      // Cold rebuild inside the resident fleet: a run from singletons on
      // the updated list, bit-identical to a one-shot run on it.
      batches_since_cold = 0;
      publish(cmd.seq, detect(nullptr, nullptr), false);
      continue;
    }

    // Incremental apply: re-refine the updated graph from the previous
    // epoch's labels, restricted to the disturbed frontier.
    const std::vector<vid_t> warm = normalize_warm_labels(std::move(labels), n);
    std::vector<vid_t> seeds;
    seeds.reserve(2 * delta.size());
    for (const Edge& e : delta.removals) {
      seeds.push_back(e.u);
      seeds.push_back(e.v);
    }
    for (const Edge& e : delta.inserts) {
      seeds.push_back(e.u);
      seeds.push_back(e.v);
    }
    publish(cmd.seq, detect(&warm, &seeds), true);
  }
}

}  // namespace detail

}  // namespace plv::core

namespace plv {

Result louvain(const GraphSource& graph, const core::ParOptions& opts) {
  graph.require_live("louvain");
  if (graph.stream() != nullptr) {
    return core::streamed_impl(*graph.stream(), graph.n_vertices(), opts);
  }
  if (graph.edges() == nullptr) {
    throw std::invalid_argument("louvain: GraphSource carries no edges and no stream");
  }
  if (graph.delta() != nullptr) {
    // The cold-baseline view of a streamed update: materialize the updated
    // list, then run cold on it — what Session::apply must match under the
    // deterministic streaming plan.
    graph::EdgeList updated = *graph.edges();
    const vid_t n =
        std::max(graph.n_vertices(), apply_edge_delta(updated, *graph.delta()));
    return core::edges_impl(updated, n, nullptr, opts);
  }
  if (graph.initial_labels() != nullptr) {
    return core::edges_impl(*graph.edges(), graph.n_vertices(), graph.initial_labels(), opts);
  }
  return core::edges_impl(*graph.edges(), graph.n_vertices(), nullptr, opts);
}

}  // namespace plv
