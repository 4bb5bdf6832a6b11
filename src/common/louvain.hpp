// Result types shared by the sequential baseline and the parallel engine,
// plus the library front door plv::louvain().
//
// Both engines produce the same artifact shape — a hierarchy of levels,
// each with its partition, modularity and inner-loop traces — so the
// quality benches (Fig. 4/5, Table III) can compare them row by row.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "common/traffic.hpp"
#include "common/types.hpp"
#include "graph/edge_list.hpp"

namespace plv {

namespace core {
struct ParOptions;  // core/options.hpp
}

/// Per-inner-iteration telemetry of one hierarchy level. `moved_fraction`
/// is the fraction of the level's vertices that changed community in that
/// iteration — the quantity the paper's Fig. 2 plots against iteration
/// number to motivate the exponential threshold.
struct LevelTrace {
  std::vector<double> moved_fraction;
  std::vector<double> modularity;  // after each inner iteration
  // Sequential-engine extra (only filled when SeqOptions::prune is on):
  std::vector<double> evaluated_fraction;  // vertices examined per sweep
  // Parallel engine extras (empty for the sequential baseline):
  std::vector<double> epsilon;         // ε(iter) used by the heuristic
  std::vector<double> gain_cutoff;     // the ΔQ̂ the histogram selected
  std::vector<double> find_seconds;    // FIND BEST COMMUNITY, per iteration
  std::vector<double> update_seconds;  // UPDATE COMMUNITY INFORMATION
  std::vector<double> prop_seconds;    // STATE PROPAGATION
  // Propagation records shipped per iteration, summed over ranks — the
  // delta-vs-full traffic evidence (full rebuild ships Σ|In_Table|).
  std::vector<std::uint64_t> prop_records;
  // Vertices whose join search FIND actually ran per iteration, summed
  // over ranks — the whole level when unrestricted, the live frontier
  // under active-vertex scheduling or a pinned Session frontier. The
  // scanned-vertices/iteration evidence behind the pruning heuristics.
  std::vector<std::uint64_t> scanned_vertices;
};

/// A level's engine footprint at its start, summed over ranks: the
/// In_Table entries it refines and the slots every scan and clear of the
/// level walks: the In_Table and Out_Table row slabs (one slot per
/// In_Table entry each) plus the community maps' hash slots.
struct TableFootprint {
  std::uint64_t in_entries{0};
  std::uint64_t slots{0};
};

/// Why a level's inner loop ended: an iteration moved no vertex, Q gained
/// less than the tolerance for the stagnation window, or the loop reached
/// max_inner_iterations.
enum class LevelStop : std::uint8_t { kNoMoves, kStagnated, kIterationCap };

/// One hierarchy level (one outer-loop round).
struct LouvainLevel {
  vid_t num_vertices{0};           // vertex count of this level's graph
  std::size_t num_communities{0};  // communities found at this level
  std::vector<vid_t> labels;       // community per level-vertex, dense 0..k-1
  double modularity{0.0};
  double seconds{0.0};             // wall time of this level (refine + rebuild)
  // Communication volume of this level, summed over ranks (parallel engine
  // only; zero for the sequential baseline).
  TrafficStats traffic;
  TableFootprint tables;  // parallel engine only
  LevelStop stop{LevelStop::kNoMoves};  // parallel engine only
  LevelTrace trace;
};

/// Full run output. `final_labels[v]` is the top-level community of
/// original vertex v (the composition of all level partitions).
struct LouvainResult {
  std::vector<LouvainLevel> levels;
  std::vector<vid_t> final_labels;
  double final_modularity{0.0};
  PhaseTimers timers;

  [[nodiscard]] std::size_t num_levels() const noexcept { return levels.size(); }

  /// Labels of original vertices after `level + 1` coarsening rounds.
  [[nodiscard]] std::vector<vid_t> labels_at_level(std::size_t level) const {
    std::vector<vid_t> out(levels.empty() ? 0 : levels.front().labels.size());
    for (std::size_t v = 0; v < out.size(); ++v) {
      vid_t c = static_cast<vid_t>(v);
      for (std::size_t l = 0; l <= level && l < levels.size(); ++l) {
        c = levels[l].labels[c];
      }
      out[v] = c;
    }
    return out;
  }
};

/// Artifact of a parallel run (and the return type of plv::louvain): the
/// common hierarchy plus communication volume and runtime telemetry.
struct Result : LouvainResult {
  TrafficStats traffic;              // whole-run volume, summed over ranks
  std::vector<double> rank_seconds;  // per-rank wall time (incl. waits)
  std::string transport;             // pml backend that carried the run
};

/// Produces the edge-list slice a given rank contributes to the input
/// graph. Slices must partition the edge multiset (each undirected edge
/// in exactly one slice); vertex ids may reference any vertex.
using EdgeSliceFn = std::function<graph::EdgeList(int rank, int nranks)>;

/// One batch of edge updates against an evolving graph: removals are
/// processed first, then inserts are appended (so a batch may legally
/// re-insert an edge it removes, e.g. to change its weight). A removal
/// must name an existing record exactly — same unordered endpoints, same
/// weight — because edge lists carry parallel edges as separate records
/// and a removal retracts exactly one of them. `n_vertices` is an
/// optional floor on the resulting vertex count, the way isolated new
/// vertices (no incident edge yet) enter the graph.
struct EdgeDelta {
  graph::EdgeList inserts;
  graph::EdgeList removals;
  vid_t n_vertices{0};

  [[nodiscard]] bool empty() const noexcept {
    return inserts.empty() && removals.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return inserts.size() + removals.size();
  }
};

/// Applies `delta` to `edges` in place (removals first, then inserts,
/// both in batch order — deterministic, so every rank of a fleet that
/// applies the same batch holds byte-identical replicas). Returns the
/// resulting vertex count: max(list's own count, delta.n_vertices).
/// Throws std::invalid_argument when a removal names no existing record.
inline vid_t apply_edge_delta(graph::EdgeList& edges, const EdgeDelta& delta) {
  auto& recs = edges.edges();
  for (const Edge& r : delta.removals) {
    const auto hit = std::find_if(recs.begin(), recs.end(), [&](const Edge& e) {
      const bool same_pair =
          (e.u == r.u && e.v == r.v) || (e.u == r.v && e.v == r.u);
      return same_pair && e.w == r.w;
    });
    if (hit == recs.end()) {
      throw std::invalid_argument(
          "apply_edge_delta: removal (" + std::to_string(r.u) + ", " +
          std::to_string(r.v) + ", w=" + std::to_string(r.w) +
          ") names no existing edge record");
    }
    recs.erase(hit);  // order-preserving compaction
  }
  for (const Edge& e : delta.inserts) edges.add(e.u, e.v, e.w);
  return std::max(edges.vertex_count(), delta.n_vertices);
}

/// Normalizes a warm-start seed against the *current* vertex count:
/// vertices beyond the seed's length (new since the seed was taken) and
/// labels referencing vanished vertices (>= n, e.g. after the graph
/// shrank) become singletons. This is what lets a partition taken before
/// an EdgeDelta keep seeding refinement after it.
[[nodiscard]] inline std::vector<vid_t> normalize_warm_labels(std::vector<vid_t> labels,
                                                              vid_t n) {
  const auto old = labels.size();
  labels.resize(n);
  for (std::size_t v = old; v < labels.size(); ++v) labels[v] = static_cast<vid_t>(v);
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] >= n) labels[v] = static_cast<vid_t>(v);
  }
  return labels;
}

/// Immutable, epoch-stamped view of a community partition — what
/// Session::snapshot() returns. Snapshots are versioned (epoch 0 is the
/// initial full run; each Session::apply publishes the next) and shared
/// by pointer: readers hold a consistent partition for as long as they
/// keep the shared_ptr, while the refine pipeline publishes newer epochs
/// without ever touching published ones.
struct LabelSnapshot {
  std::uint64_t epoch{0};
  vid_t n_vertices{0};
  std::size_t num_communities{0};
  double modularity{0.0};
  bool incremental{false};  // produced by dirty-region re-refine, not a cold rebuild
  std::vector<vid_t> labels;
  std::vector<TableFootprint> tables;  // per level of the detection behind this epoch

  /// Community of vertex v; throws std::out_of_range for unknown ids.
  [[nodiscard]] vid_t community_of(vid_t v) const {
    if (v >= labels.size()) {
      throw std::out_of_range("LabelSnapshot: vertex " + std::to_string(v) +
                              " out of range (n = " + std::to_string(labels.size()) + ")");
    }
    return labels[v];
  }

  /// All vertices labeled `c`, ascending (empty for unknown communities).
  [[nodiscard]] std::vector<vid_t> community_members(vid_t c) const {
    std::vector<vid_t> members;
    for (std::size_t v = 0; v < labels.size(); ++v) {
      if (labels[v] == c) members.push_back(static_cast<vid_t>(v));
    }
    return members;
  }
};

/// What plv::louvain (and plv::Session) should run on — one of four
/// ingestion modes behind a single entry point:
///
///   from_edges       cold start on a materialized edge list;
///   from_edges_warm  same, but refinement starts from a previous run's
///                    partition instead of singletons (dynamic graphs);
///   from_deltas      a materialized base list plus one EdgeDelta batch,
///                    evaluated as if apply_edge_delta had already run —
///                    the cold-baseline view of a streamed update;
///   from_stream      distributed ingestion — no rank ever materializes
///                    the whole edge list; each generates its own slice.
///
/// Ownership: every factory returns a NON-OWNING VIEW. Each referenced
/// object must stay alive — and unmodified — until the louvain() call
/// returns or the Session constructor finishes (Session copies what it
/// needs at construction; louvain() reads the referents concurrently from
/// all ranks for the whole run). Per factory:
///
///   from_edges        borrows `edges`;
///   from_edges_warm   borrows `edges` and `initial_labels`;
///   from_deltas       borrows `base` and `delta`;
///   from_stream       borrows `slice_of` — beware binding a temporary
///                     lambda: EdgeSliceFn is a std::function, so
///                     `from_stream([](int, int){...}, n)` dangles the
///                     moment the full expression ends. Name it first.
///
/// A moved-from GraphSource is expired: using it throws std::logic_error
/// (see require_live) instead of dereferencing stale pointers — the
/// sentinel that turns the lifetime footgun into a clear error.
class GraphSource {
 public:
  [[nodiscard]] static GraphSource from_edges(const graph::EdgeList& edges,
                                              vid_t n_vertices = 0) {
    GraphSource s;
    s.edges_ = &edges;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  [[nodiscard]] static GraphSource from_edges_warm(const graph::EdgeList& edges,
                                                   const std::vector<vid_t>& initial_labels,
                                                   vid_t n_vertices = 0) {
    GraphSource s;
    s.edges_ = &edges;
    s.initial_labels_ = &initial_labels;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  [[nodiscard]] static GraphSource from_deltas(const graph::EdgeList& base,
                                               const EdgeDelta& delta,
                                               vid_t n_vertices = 0) {
    GraphSource s;
    s.edges_ = &base;
    s.delta_ = &delta;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  [[nodiscard]] static GraphSource from_stream(const EdgeSliceFn& slice_of,
                                               vid_t n_vertices) {
    GraphSource s;
    s.slice_of_ = &slice_of;
    s.n_vertices_ = n_vertices;
    s.live_ = true;
    return s;
  }

  // Copying a view is fine (both copies borrow the same referents); a
  // *move* expires the source so stale uses fail loudly instead of
  // reading dangling pointers.
  GraphSource(const GraphSource&) = default;
  GraphSource& operator=(const GraphSource&) = default;
  GraphSource(GraphSource&& other) noexcept { steal(other); }
  GraphSource& operator=(GraphSource&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }

  /// True once this source has been moved from (or was never built by a
  /// factory). Expired sources throw on use.
  [[nodiscard]] bool expired() const noexcept { return !live_; }

  /// The sentinel every consumer calls before touching the referents:
  /// throws std::logic_error naming the calling entry point when the
  /// source is expired. Cheap enough to stay on in release builds.
  void require_live(const char* caller) const {
    if (!live_) {
      throw std::logic_error(std::string(caller) +
                             ": GraphSource is expired (moved-from). The factories "
                             "return non-owning views; build a fresh source from the "
                             "live edge list / labels instead of reusing a moved one.");
    }
  }

  [[nodiscard]] const graph::EdgeList* edges() const noexcept { return edges_; }
  [[nodiscard]] const std::vector<vid_t>* initial_labels() const noexcept {
    return initial_labels_;
  }
  [[nodiscard]] const EdgeDelta* delta() const noexcept { return delta_; }
  [[nodiscard]] const EdgeSliceFn* stream() const noexcept { return slice_of_; }
  [[nodiscard]] vid_t n_vertices() const noexcept { return n_vertices_; }

 private:
  GraphSource() = default;

  void steal(GraphSource& other) noexcept {
    edges_ = other.edges_;
    initial_labels_ = other.initial_labels_;
    delta_ = other.delta_;
    slice_of_ = other.slice_of_;
    n_vertices_ = other.n_vertices_;
    live_ = other.live_;
    other.edges_ = nullptr;
    other.initial_labels_ = nullptr;
    other.delta_ = nullptr;
    other.slice_of_ = nullptr;
    other.live_ = false;
  }

  const graph::EdgeList* edges_{nullptr};
  const std::vector<vid_t>* initial_labels_{nullptr};
  const EdgeDelta* delta_{nullptr};
  const EdgeSliceFn* slice_of_{nullptr};
  vid_t n_vertices_{0};
  bool live_{false};
};

/// The library front door: one call for cold, warm, and streamed parallel
/// community detection. Validates `opts`, resolves the transport
/// (ParOptions::transport, overridable via PLV_TRANSPORT), runs the
/// engine on opts.nranks ranks, and returns the full artifact — labels,
/// per-level modularity/traffic, phase timers, and the transport that
/// carried the run. Deterministic for fixed options and input, on every
/// transport. Defined in core/louvain_par.cpp.
[[nodiscard]] Result louvain(const GraphSource& graph, const core::ParOptions& opts);

/// Phase names matching the paper's Fig. 8 legend; both engines report
/// timings under these keys.
namespace phase {
inline constexpr const char* kStatePropagation = "STATE PROPAGATION";
inline constexpr const char* kFindBestCommunity = "FIND BEST COMMUNITY";
inline constexpr const char* kUpdateCommunity = "UPDATE COMMUNITY INFORMATION";
inline constexpr const char* kRefine = "REFINE";
// Parallel engine, inside REFINE: the ΔQ̂ cutoff (positive-gain histogram
// and its reductions), and the Σin exchange plus the iteration's closing
// modularity/telemetry allreduce.
inline constexpr const char* kGainCutoff = "GAIN CUTOFF";
inline constexpr const char* kSigmaInExchange = "SIGMA-IN EXCHANGE";
inline constexpr const char* kGraphReconstruction = "GRAPH RECONSTRUCTION";
}  // namespace phase

}  // namespace plv
