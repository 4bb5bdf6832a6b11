// Micro-benchmark (google-benchmark): the hash functions. It quantifies
// the constant behind the paper's choice: Fibonacci hashing is
// "high-quality and computationally inexpensive" (Section I-B). The
// EdgeTable's insert and find costs are perfbench's hashing.edgetable_*
// probes, on the wall clock.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.hpp"
#include "hashing/hash_fns.hpp"

namespace {

using plv::hashing::HashKind;

void BM_HashFunction(benchmark::State& state) {
  const auto kind = static_cast<HashKind>(state.range(0));
  plv::Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys(4096);
  for (auto& k : keys) k = rng();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plv::hashing::apply_hash(kind, keys[i++ & 4095], 1 << 20));
  }
}
BENCHMARK(BM_HashFunction)
    ->Arg(static_cast<int>(HashKind::kFibonacci))
    ->Arg(static_cast<int>(HashKind::kLinearCongruential))
    ->Arg(static_cast<int>(HashKind::kBitwise))
    ->Arg(static_cast<int>(HashKind::kConcatenated));

}  // namespace
