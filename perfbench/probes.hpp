// Layer probes of the perf benchmark: the pml runtime (spawn, collectives,
// exchange, Aggregator) and the hash tables (EdgeTable, FlatMap), each
// sized from the workload the probe serves. Every probe warms up before
// its timed loop, times with steady_clock, and returns a median.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/csr.hpp"

namespace perfbench {

/// Wall time of Runtime::run with an empty body (thread fleet spawn + join).
[[nodiscard]] double pml_spawn_ms(int nranks);

struct CollectiveLatency {
  double barrier_us{0};
  double allreduce_us{0};
};

/// Per-operation barrier and allreduce latency inside one warm runtime.
[[nodiscard]] CollectiveLatency pml_collective_latency(int nranks);

/// Records per second (in millions) of one all-to-all of `records` 16-byte
/// records in total, through Comm::exchange and through the Aggregator's
/// fine-grained path with its quiescence drain.
[[nodiscard]] double pml_exchange_mrecs_per_s(int nranks, std::uint64_t records);
[[nodiscard]] double pml_aggregator_mrecs_per_s(int nranks, std::uint64_t records);

struct EdgeTableNs {
  double add_ns{0};
  double find_ns{0};
};

/// EdgeTable insert_or_add and find cost per key in a table pre-sized for
/// `entries` keys.
[[nodiscard]] EdgeTableNs edgetable_ns(std::size_t entries, std::uint64_t seed);

/// clear() of a table that once held `held` entries and now holds `now`.
[[nodiscard]] double edgetable_clear_residue_us(std::size_t held, std::size_t now,
                                                std::uint64_t seed);

/// FlatMap ref() per key over one ref()/clear() cycle per vertex, keyed by
/// the vertex's neighbours — FIND's neighbour-community weights at level 0.
[[nodiscard]] double flatmap_ref_ns(const plv::graph::Csr& g, std::uint64_t seed);

}  // namespace perfbench
