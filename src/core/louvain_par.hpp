// Parallel Louvain for distributed-memory execution — the paper's core
// contribution (Algorithms 2–5).
//
// Every rank owns a 1-D slice of the vertices plus the communities whose
// label vertex it owns. Two tables per rank carry the graph, each one
// row per owned vertex, sorted by key (hashing::RowStore):
//
//   In_Table  — ((v, u), w) for owned u: the in-edges, immutable within a
//               level; the authoritative copy of the topology.
//   Out_Table — ((u, c), w) for owned u: the out-edge weight of u into
//               each neighboring *community* c. Built from the In_Table by
//               the level's first STATE PROPAGATION, then maintained
//               *incrementally*: moved vertices ship retraction/assertion
//               pairs that patch the table in place, with full rebuilds on
//               a configurable cadence (RefinePlan::full_rebuild_every)
//               and whenever a rebuild would ship fewer records.
//
// One outer level = STATE PROPAGATION → REFINE (inner loop: FIND BEST
// COMMUNITY, threshold ΔQ̂ selection, UPDATE COMMUNITY INFORMATION,
// re-propagation, Σin/modularity) → GRAPH RECONSTRUCTION (all-to-all
// rewrite of the Out_Table into the next level's In_Table).
//
// The engine runs behind plv::louvain (common/louvain.hpp) and plv::Session
// (core/session.hpp); this header gathers their declarations.
#pragma once

#include "common/louvain.hpp"
#include "core/options.hpp"
