#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <span>
#include <vector>

#include "common/flat_map.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "hashing/edge_table.hpp"
#include "pml/aggregator.hpp"
#include "pml/comm.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using plv::pml::Comm;

/// One propagation-sized record: (vertex, community, weight).
struct Rec {
  std::uint32_t a;
  std::uint32_t b;
  double w;
};

/// Runs `body` on a thread fleet with the protocol checker off — the
/// configuration every workload measures.
void run_fleet(int nranks, const std::function<void(Comm&)>& body) {
  plv::pml::Runtime::run(nranks, body, plv::pml::TransportKind::kThread,
                         /*validate=*/false);
}

/// Times `reps` rounds of `round` inside one warm runtime, fenced by
/// barriers so rank 0's stopwatch covers the slowest rank; `warmup`
/// rounds run first, untimed. Returns the median round in seconds.
double median_round_s(int nranks, int warmup, int reps,
                      const std::function<void(Comm&)>& round) {
  std::vector<double> samples;
  run_fleet(nranks, [&](Comm& comm) {
    for (int i = 0; i < warmup; ++i) round(comm);
    for (int i = 0; i < reps; ++i) {
      comm.barrier();
      const auto t0 = Clock::now();
      round(comm);
      comm.barrier();
      if (comm.rank() == 0) samples.push_back(seconds_since(t0));
    }
  });
  return median(samples);
}

std::vector<std::uint64_t> random_keys(std::size_t count, std::uint64_t seed) {
  plv::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(count);
  for (auto& k : keys) {
    k = plv::pack_key(static_cast<plv::vid_t>(rng.next_below(1U << 30)),
                      static_cast<plv::vid_t>(rng.next_below(1U << 30)));
  }
  return keys;
}

}  // namespace

double pml_spawn_ms(int nranks) {
  constexpr int kWarmup = 3;
  constexpr int kReps = 31;
  std::vector<double> samples;
  for (int i = 0; i < kWarmup + kReps; ++i) {
    const auto t0 = Clock::now();
    run_fleet(nranks, [](Comm&) {});
    if (i >= kWarmup) samples.push_back(seconds_since(t0) * 1e3);
  }
  return median(samples);
}

CollectiveLatency pml_collective_latency(int nranks) {
  // OSU-style: warm up, then time batches of back-to-back operations and
  // report the median batch divided by its length.
  constexpr int kWarmup = 200;
  constexpr int kBatches = 41;
  constexpr int kOps = 100;
  std::vector<double> barrier_us;
  std::vector<double> allreduce_us;
  std::atomic<std::uint64_t> sink{0};  // keeps the reductions observable
  run_fleet(nranks, [&](Comm& comm) {
    std::uint64_t acc = 0;
    for (int i = 0; i < kWarmup; ++i) {
      comm.barrier();
      acc += comm.allreduce_sum<std::uint64_t>(1);
    }
    for (int b = 0; b < kBatches; ++b) {
      comm.barrier();
      auto t0 = Clock::now();
      for (int i = 0; i < kOps; ++i) comm.barrier();
      if (comm.rank() == 0) barrier_us.push_back(seconds_since(t0) * 1e6 / kOps);
      comm.barrier();
      t0 = Clock::now();
      for (int i = 0; i < kOps; ++i) acc += comm.allreduce_sum<std::uint64_t>(acc & 1U);
      if (comm.rank() == 0) allreduce_us.push_back(seconds_since(t0) * 1e6 / kOps);
    }
    sink += acc;
  });
  return {median(barrier_us), median(allreduce_us)};
}

double pml_exchange_mrecs_per_s(int nranks, std::uint64_t records) {
  const std::size_t per_dest =
      std::max<std::size_t>(1, records / static_cast<std::uint64_t>(nranks * nranks));
  std::vector<std::vector<std::vector<Rec>>> outgoing(static_cast<std::size_t>(nranks));
  for (auto& lanes : outgoing) {
    lanes.assign(static_cast<std::size_t>(nranks), std::vector<Rec>(per_dest, Rec{1, 2, 1.0}));
  }
  const double s = median_round_s(nranks, 2, 9, [&](Comm& comm) {
    const auto in = comm.exchange(outgoing[static_cast<std::size_t>(comm.rank())]);
    if (in.size() != per_dest * static_cast<std::size_t>(nranks)) {
      throw std::runtime_error("exchange probe: short delivery");
    }
  });
  return static_cast<double>(per_dest) * nranks * nranks / s / 1e6;
}

double pml_aggregator_mrecs_per_s(int nranks, std::uint64_t records) {
  const std::size_t per_rank =
      std::max<std::size_t>(1, records / static_cast<std::uint64_t>(nranks));
  const double s = median_round_s(nranks, 2, 9, [&](Comm& comm) {
    plv::pml::Aggregator<Rec> agg(comm);
    for (std::size_t i = 0; i < per_rank; ++i) {
      agg.push(static_cast<int>(i % static_cast<std::size_t>(nranks)),
               Rec{static_cast<std::uint32_t>(i), 2, 1.0});
    }
    agg.flush_all();
    std::size_t got = 0;
    comm.drain_until_quiescent<Rec>([&](int, std::span<const Rec> recs) { got += recs.size(); });
    if (got == 0) throw std::runtime_error("aggregator probe: nothing delivered");
  });
  return static_cast<double>(per_rank) * nranks / s / 1e6;
}

EdgeTableNs edgetable_ns(std::size_t entries, std::uint64_t seed) {
  constexpr int kReps = 7;
  const auto keys = random_keys(entries, seed);
  auto lookups = keys;
  std::shuffle(lookups.begin(), lookups.end(), plv::Xoshiro256(seed + 1));
  std::vector<double> add_ns;
  std::vector<double> find_ns;
  double sink = 0;
  for (int r = 0; r < kReps + 1; ++r) {  // rep 0 warms the allocator
    plv::hashing::EdgeTable table(entries);
    auto t0 = Clock::now();
    for (const auto k : keys) table.insert_or_add(k, 1.0);
    const double add = seconds_since(t0);
    t0 = Clock::now();
    for (const auto k : lookups) sink += table.find(k).value_or(0.0);
    const double find = seconds_since(t0);
    if (r == 0) continue;
    add_ns.push_back(add * 1e9 / static_cast<double>(entries));
    find_ns.push_back(find * 1e9 / static_cast<double>(entries));
  }
  if (sink < static_cast<double>(entries)) throw std::runtime_error("edgetable probe: misses");
  return {median(add_ns), median(find_ns)};
}

double edgetable_clear_residue_us(std::size_t held, std::size_t now, std::uint64_t seed) {
  constexpr int kReps = 21;
  const auto keys = random_keys(std::max(held, now), seed);
  plv::hashing::EdgeTable table(held);
  for (std::size_t i = 0; i < held; ++i) table.insert_or_add(keys[i], 1.0);
  table.clear();
  std::vector<double> us;
  for (int r = 0; r < kReps + 1; ++r) {
    for (std::size_t i = 0; i < now; ++i) table.insert_or_add(keys[i], 1.0);
    const auto t0 = Clock::now();
    table.clear();
    if (r > 0) us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

double flatmap_ref_ns(const plv::graph::Csr& g, std::uint64_t seed) {
  constexpr int kReps = 5;
  std::vector<plv::vid_t> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0U);
  std::shuffle(order.begin(), order.end(), plv::Xoshiro256(seed));
  plv::FlatMap<double> weights;
  std::vector<double> ns;
  double sink = 0;
  for (int r = 0; r < kReps + 1; ++r) {
    std::size_t refs = 0;
    const auto t0 = Clock::now();
    for (const plv::vid_t u : order) {
      g.for_each_neighbor(u, [&](plv::vid_t v, double w) { weights.ref(v) += w; });
      refs += g.degree(u);
      sink += static_cast<double>(weights.size());
      weights.clear();
    }
    const double s = seconds_since(t0);
    if (r > 0 && refs > 0) ns.push_back(s * 1e9 / static_cast<double>(refs));
  }
  if (sink <= 0) throw std::runtime_error("flatmap probe: empty graph");
  return median(ns);
}

}  // namespace perfbench
