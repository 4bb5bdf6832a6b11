// Parallel Louvain for distributed-memory execution — the paper's core
// contribution (Algorithms 2–5).
//
// Every rank owns a 1-D slice of the vertices plus the communities whose
// label vertex it owns. Two hash tables per rank carry the graph:
//
//   In_Table  — ((v, u), w) for owned u: the in-edges, immutable within a
//               level; the authoritative copy of the topology.
//   Out_Table — ((u, c), w) for owned u: the out-edge weight of u into
//               each neighboring *community* c. Built from the In_Table by
//               the level's first STATE PROPAGATION, then maintained
//               *incrementally*: moved vertices ship retraction/assertion
//               pairs that patch the table in place, with full rebuilds on
//               a configurable cadence (ParOptions::full_rebuild_every)
//               and whenever a rebuild would ship fewer records.
//
// One outer level = STATE PROPAGATION → REFINE (inner loop: FIND BEST
// COMMUNITY, threshold ΔQ̂ selection, UPDATE COMMUNITY INFORMATION,
// re-propagation, Σin/modularity) → GRAPH RECONSTRUCTION (all-to-all
// rewrite of the Out_Table into the next level's In_Table).
#pragma once

#include <functional>

#include "common/louvain.hpp"
#include "core/options.hpp"
#include "graph/edge_list.hpp"
#include "pml/comm.hpp"

namespace plv::core {

/// Parallel run artifact: the common hierarchy plus communication volume.
/// (The type now lives in common/louvain.hpp as plv::Result so the
/// plv::louvain front door can return it; this alias keeps the historical
/// core-level name working.)
using ParResult = plv::Result;

/// SPMD entry point: the body of one rank, running against an existing
/// communicator (exposed so tests can drive the engine inside their own
/// Runtime and inspect per-rank behavior). All ranks must pass the same
/// `edges`, `n_vertices`, and options. Rank 0's return value carries the
/// full result; other ranks return an empty result.
///
/// This is a test seam, not an application entry point — production code
/// goes through plv::louvain / plv::Session, which own the fleet launch
/// (the repo lint bans louvain_rank calls outside tests/).
[[nodiscard]] ParResult louvain_rank(pml::Comm& comm, const graph::EdgeList& edges,
                                     vid_t n_vertices, const ParOptions& opts);

/// Produces the edge-list slice a given rank contributes to the input
/// graph (now defined in common/louvain.hpp for the plv::louvain front
/// door; aliased here for existing call sites).
using EdgeSliceFn = plv::EdgeSliceFn;

}  // namespace plv::core
