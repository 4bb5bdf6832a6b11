// Hash functions evaluated in the paper (Section V-C, Fig. 6).
//
// The paper compares concatenated, linear-congruential, bitwise, and
// Fibonacci hashing for distributing edge keys over hash bins, and selects
// Fibonacci (Knuth, TAOCP vol. 3; paper Eq. 6) for its load balance at
// negligible cost. All functions here map a 64-bit key to a bin index in
// [0, M) with M a power of two.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace plv::hashing {

/// 2^64 / φ, the multiplier that realizes Eq. 6 in integer arithmetic:
/// H(x) = floor(M/W * ((φ⁻¹ · W · x) mod W)) with W = 2^64 reduces, for M a
/// power of two, to the top log2(M) bits of (x * K) mod 2^64.
inline constexpr std::uint64_t kFibonacciMultiplier = 0x9e3779b97f4a7c15ULL;

/// Sizing policy shared by EdgeTable and FlatMap (DESIGN.md decision 17):
/// reset(expected) keeps a table's slot array while its capacity lies in
/// [target, kResetSlack * target], `target` being the capacity
/// reserve(expected) picks, and replaces the array outright otherwise.
inline constexpr std::size_t kResetSlack = 8;

[[nodiscard]] constexpr bool reset_keeps(std::size_t capacity, std::size_t target) noexcept {
  return capacity >= target && capacity <= kResetSlack * target;
}

/// Fibonacci (golden-ratio multiplicative) hash — the paper's choice.
[[nodiscard]] constexpr std::uint64_t fibonacci_hash(std::uint64_t key,
                                                     std::uint64_t table_size) noexcept {
  assert(is_pow2(table_size));
  if (table_size <= 1) return 0;  // a 1-bin table has only bin 0
  const unsigned shift = 64U - log2_floor(table_size);
  return (key * kFibonacciMultiplier) >> shift;
}

/// Linear congruential hash (paper ref [39]): h(x) = (a·x + b) mod p mod M,
/// with the classic MMIX multiplier. Competitive with Fibonacci in the
/// paper's study but with slightly longer max bin chains.
[[nodiscard]] constexpr std::uint64_t lcg_hash(std::uint64_t key,
                                               std::uint64_t table_size) noexcept {
  assert(is_pow2(table_size));
  if (table_size <= 1) return 0;  // a 1-bin table has only bin 0
  const std::uint64_t mixed = key * 6364136223846793005ULL + 1442695040888963407ULL;
  // Take high bits: low bits of an LCG step are weak.
  const unsigned shift = 64U - log2_floor(table_size);
  return mixed >> shift;
}

/// Bitwise (xor-fold) hash: folds the key's halves together and masks.
/// Cheap but structurally weak on packed (hi,lo) edge keys where both
/// halves are small integers — exactly the failure mode Fig. 6 exposes.
[[nodiscard]] constexpr std::uint64_t bitwise_hash(std::uint64_t key,
                                                   std::uint64_t table_size) noexcept {
  assert(is_pow2(table_size));
  std::uint64_t x = key;
  x ^= x >> 32;
  x ^= x >> 16;
  return x & (table_size - 1);
}

/// Concatenated hash: uses the packed key directly modulo the table size.
/// The weakest candidate — consecutive vertex ids map to consecutive bins.
[[nodiscard]] constexpr std::uint64_t concat_hash(std::uint64_t key,
                                                  std::uint64_t table_size) noexcept {
  assert(is_pow2(table_size));
  return key & (table_size - 1);
}

enum class HashKind {
  kFibonacci,
  kLinearCongruential,
  kBitwise,
  kConcatenated,
};

[[nodiscard]] constexpr std::uint64_t apply_hash(HashKind kind, std::uint64_t key,
                                                 std::uint64_t table_size) noexcept {
  switch (kind) {
    case HashKind::kFibonacci:
      return fibonacci_hash(key, table_size);
    case HashKind::kLinearCongruential:
      return lcg_hash(key, table_size);
    case HashKind::kBitwise:
      return bitwise_hash(key, table_size);
    case HashKind::kConcatenated:
      return concat_hash(key, table_size);
  }
  return 0;  // unreachable
}

[[nodiscard]] constexpr const char* hash_kind_name(HashKind kind) noexcept {
  switch (kind) {
    case HashKind::kFibonacci:
      return "fibonacci";
    case HashKind::kLinearCongruential:
      return "lcg";
    case HashKind::kBitwise:
      return "bitwise";
    case HashKind::kConcatenated:
      return "concat";
  }
  return "?";
}

/// The paper's literal Eq. 5 key packing: f(t1,t2) = (t1 << 16) | t2.
///
/// Precondition: t1 < 2^16 and t2 < 2^16. The packing is only injective
/// for 16-bit ids — a larger t2 bleeds into t1's field and *aliases*
/// other pairs (e.g. (0, 2^16) packs identically to (1, 0)). Kept for
/// fidelity experiments only; debug builds assert the precondition, and
/// callers on arbitrary graphs must use pack_key() (32/32 split,
/// common/types.hpp) instead. See the ROADMAP audit note.
[[nodiscard]] constexpr std::uint64_t pack_key_eq5(vid_t t1, vid_t t2) noexcept {
  assert(t1 < (1U << 16) && t2 < (1U << 16) && "pack_key_eq5: ids must be < 2^16");
  return (static_cast<std::uint64_t>(t1) << 16) | static_cast<std::uint64_t>(t2);
}

}  // namespace plv::hashing
