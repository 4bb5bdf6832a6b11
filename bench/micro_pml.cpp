// Micro-benchmarks of the messaging layer (google-benchmark), on the wall
// clock (UseRealTime: the work runs on rank threads and forked processes,
// not the benchmark's main thread).
//
// The paper attributes its scalability to a runtime "specifically
// designed for fine-grained applications" (abstract). perfbench measures
// barrier and allreduce latency, exchange bandwidth and aggregator
// throughput (pml.* probes); what stays here is what it does not: the
// quiescence protocol's empty-phase cost and the hierarchical-vs-flat
// collectives A/B on the hybrid substrate.
//
// The quiescence benchmark runs many phases inside one Runtime so the
// chunk pool reaches steady state, exactly as the Louvain phases use it;
// runtime spin-up is amortized across the phase batch.
#include <benchmark/benchmark.h>

#include "bench_context.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "pml/comm.hpp"
#include "pml/transport_hybrid.hpp"

namespace {

using plv::pml::Comm;
using plv::pml::HybridOptions;
using plv::pml::Runtime;
using plv::pml::TransportKind;

/// Cost of an empty fine-grained phase: nothing but the counted-termination
/// markers. The seed protocol paid one allreduce to settle the sent count
/// plus at least one more per poll round; the current one pays zero
/// collective rounds.
void BM_QuiescenceLatency(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  constexpr int kPhases = 100;
  for (auto _ : state) {
    Runtime::run(nranks, [&](Comm& comm) {
      for (int p = 0; p < kPhases; ++p) {
        comm.drain_until_quiescent<int>([](int, std::span<const int>) {});
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kPhases);
}
BENCHMARK(BM_QuiescenceLatency)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Hierarchical vs flat collectives, interleaved A/B on the SAME composed
// hybrid substrate: an 8-rank fleet of 4 forked processes x 2 thread
// ranks. Arg 0 runs the flat baseline (flat_collectives publishes the
// trivial topology, so every collective crosses the group boundary for
// each remote rank); Arg 1 runs the two-level path (intra-group combine
// at the leader, leaders-only cross phase, broadcast down). Both variants
// run interleaved in one benchmark session — same process, same
// thermal/cache state — so the latency delta is the collective
// discipline alone. The inter-group counter is rank 0's own
// view (rank 0 always runs in the calling process): 6 boundary crossings
// per collective flat vs 3 (one per peer leader) hierarchical.
void BM_HierCollectivesAB(benchmark::State& state) {
  const bool hier = state.range(0) != 0;
  constexpr int nranks = 8;
  constexpr int kRounds = 50;
  const bool validate = plv::bench::validation_active();
  std::uint64_t inter_group = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    std::uint64_t rank0_inter = 0;  // rank 0 writes caller-scope state on every backend
    Runtime::run(
        nranks,
        [&](Comm& comm) {
          std::uint64_t acc = 0;
          for (int i = 0; i < kRounds; ++i) {
            acc += comm.allreduce_sum<std::uint64_t>(
                static_cast<std::uint64_t>(comm.rank()));
            comm.barrier();
          }
          benchmark::DoNotOptimize(acc);
          if (comm.rank() == 0) rank0_inter = comm.stats().inter_group_messages;
        },
        TransportKind::kHybrid, validate, {},
        HybridOptions{.ranks_per_proc = 2, .flat_collectives = !hier});
    inter_group += rank0_inter;
    ++runs;
  }
  // allreduce + barrier per round = two collectives.
  state.SetItemsProcessed(state.iterations() * kRounds * 2);
  state.counters["rank0_inter_group_per_collective"] =
      runs > 0 ? static_cast<double>(inter_group) /
                     (static_cast<double>(runs) * kRounds * 2)
               : 0.0;
}
BENCHMARK(BM_HierCollectivesAB)->ArgName("hier")->Arg(0)->Arg(1)->UseRealTime();

// The headline number: inter-group collective traffic per refine
// iteration of the real engine at 8 ranks (4x2 hybrid), flat vs
// hierarchical collectives on the same substrate. The two disciplines are
// bit-identical on this input (pinned by TransportEquivalence), so both
// variants perform the same label trajectory and the traffic counters
// compare like for like. inter_group is the fleet-wide reduction over all
// ranks' TrafficStats.
const plv::graph::EdgeList& hier_workload() {
  static const auto g = plv::gen::lfr({.n = 1000, .mu = 0.3, .seed = 29});
  return g.edges;
}

void BM_HierRefineRoundsAB(benchmark::State& state) {
  const bool hier = state.range(0) != 0;
  plv::core::ParOptions opts;
  opts.nranks = 8;
  opts.transport = TransportKind::kHybrid;
  opts.ranks_per_proc = 2;
  opts.flat_collectives = !hier;

  std::uint64_t collectives = 0;
  std::uint64_t inter_group = 0;
  std::uint64_t iterations = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const auto r = plv::louvain(plv::GraphSource::from_edges(hier_workload(), 1000), opts);
    benchmark::DoNotOptimize(r.final_modularity);
    collectives += r.traffic.collectives;
    inter_group += r.traffic.inter_group_messages;
    for (const auto& level : r.levels) {
      iterations += level.trace.modularity.size();
    }
    ++runs;
  }
  const double inv_runs = runs > 0 ? 1.0 / static_cast<double>(runs) : 0.0;
  const double inv_iters =
      iterations > 0 ? 1.0 / static_cast<double>(iterations) : 0.0;
  state.counters["collectives"] = static_cast<double>(collectives) * inv_runs;
  state.counters["inter_group_msgs"] = static_cast<double>(inter_group) * inv_runs;
  state.counters["inter_group_msgs_per_iter"] =
      static_cast<double>(inter_group) * inv_iters;
  state.counters["collectives_per_iter"] =
      static_cast<double>(collectives) * inv_iters;
}
BENCHMARK(BM_HierRefineRoundsAB)
    ->ArgName("hier")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main instead of benchmark_main: stamp transport + validation +
// sanitizer into the benchmark context, and refuse machine-readable output
// when the protocol checker or a sanitizer would taint the numbers
// (bench_context.hpp).
int main(int argc, char** argv) {
  const bool machine_output = plv::bench::wants_machine_output(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!plv::bench::stamp_context_and_gate(machine_output)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
