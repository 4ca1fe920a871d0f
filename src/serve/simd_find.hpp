#pragma once

/// Branchless multiway catalog search (DESIGN.md §12).
///
/// The flat cascade's root catalog — the one node a path query searches
/// from scratch — carries, next to its sorted key slice, a *blocked
/// multiway layout*: the keys of one node re-arranged into an implicit
/// (B+1)-ary search tree with B = 8 keys per block, so one block is
/// exactly one cache line of int64 keys and one AVX2 rank step (two
/// 256-bit compares + movemask + popcount) resolves a whole block.  The
/// descent is branchless — the block index is computed arithmetically
/// from the rank, the candidate answer is kept via conditional select —
/// and touches ceil(log9(nblocks)) + 1 cache lines instead of the
/// log2(n) dependent lines of a binary search.
///
/// Layout (per catalog of n keys, padded to S = ceil(n/8)*8 slots):
///   slot_keys[S] : block k owns slots [8k, 8k+8); within a block keys
///                  ascend; block k's children are blocks 9k+j+1 for
///                  j in [0, 9).  Slots are filled by an in-order walk of
///                  that implicit tree over the ascending key sequence;
///                  leftover slots are padded with +inf.
///   slot_pos[S]  : the rank (index into the original sorted slice) of
///                  the key in each slot; padding slots carry n, the
///                  "past the end" rank.
///
/// lower_bound() returns exactly std::lower_bound's rank for ANY query,
/// including queries past the maximum key (result n) — see the padding
/// argument in DESIGN.md §12.  In the serving layer every catalog ends
/// with a +inf terminal, so results are always < n there.
///
/// Dispatch mirrors the CRC-32C kernel in snapshot/format.hpp: each
/// AVX2 entry point is compiled with a function-level target attribute
/// and selected at runtime via __builtin_cpu_supports, so the binary
/// runs (and the full test suite passes) on any x86-64.  Building with
/// -DCOOPSEARCH_DISABLE_SIMD=ON removes the vector paths entirely and
/// serves everything through the portable scalar kernel.

#include <cstddef>
#include <cstdint>

#include "catalog/catalog.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(COOPSEARCH_DISABLE_SIMD)
#define COOPSEARCH_SIMD_X86 1
#include <immintrin.h>
#endif

namespace serve::simd {

using cat::Key;

/// Keys per block: 8 int64 = one 64-byte cache line = two ymm registers.
inline constexpr std::uint32_t kBlock = 8;
/// Branching factor of the implicit tree (B keys separate B+1 children).
inline constexpr std::uint32_t kFan = kBlock + 1;

/// Padded slot count for an n-key catalog (0 keys -> 0 slots).
[[nodiscard]] constexpr std::uint32_t num_slots(std::uint32_t n) {
  return (n + kBlock - 1) / kBlock * kBlock;
}

[[nodiscard]] constexpr std::uint32_t num_blocks(std::uint32_t n) {
  return (n + kBlock - 1) / kBlock;
}

namespace detail {

/// In-order walk of the implicit (B+1)-ary tree over blocks [0, nblocks),
/// visiting slot indices in ascending key order.  Depth is
/// O(log9(nblocks)) — 13 levels cover 2^32 slots.
template <typename Emit>
void in_order(std::uint32_t k, std::uint32_t nblocks, Emit& emit) {
  if (k >= nblocks) {
    return;
  }
  for (std::uint32_t j = 0; j < kBlock; ++j) {
    in_order(k * kFan + j + 1, nblocks, emit);
    emit(std::size_t{k} * kBlock + j);
  }
  in_order(k * kFan + kBlock + 1, nblocks, emit);
}

}  // namespace detail

/// Fill slot_keys/slot_pos (each num_slots(n) long) from the ascending
/// key slice keys[0..n).  Padding slots get (+inf, n).
inline void build_layout(const Key* keys, std::uint32_t n, Key* slot_keys,
                         std::uint32_t* slot_pos) {
  std::uint32_t t = 0;
  auto emit = [&](std::size_t slot) {
    if (t < n) {
      slot_keys[slot] = keys[t];
      slot_pos[slot] = t;
      ++t;
    } else {
      slot_keys[slot] = cat::kInfinity;
      slot_pos[slot] = n;
    }
  };
  detail::in_order(0, num_blocks(n), emit);
}

/// Test/bench hook: force the scalar kernel even when AVX2 is available,
/// so the two paths can be differentially compared (and separately
/// benchmarked) in one process.  Read on every dispatch; not intended to
/// be toggled while queries are in flight.
inline bool& force_scalar_flag() {
  static bool flag = false;
  return flag;
}
inline void set_force_scalar(bool v) { force_scalar_flag() = v; }

[[nodiscard]] inline bool dispatch_is_avx2() {
#if defined(COOPSEARCH_SIMD_X86)
  return !force_scalar_flag() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// "avx2" or "scalar" — recorded in bench JSON rows.
[[nodiscard]] inline const char* dispatch_name() {
  return dispatch_is_avx2() ? "avx2" : "scalar";
}

/// Rank of y within one block: how many of the 8 keys are < y.
[[nodiscard]] inline std::uint32_t rank_block_scalar(const Key* b, Key y) {
  std::uint32_t c = 0;
  for (std::uint32_t j = 0; j < kBlock; ++j) {
    c += b[j] < y ? 1u : 0u;
  }
  return c;
}

/// Portable kernel: identical descent to the AVX2 path, with the rank
/// computed by an unrolled compare-accumulate (no data-dependent
/// branches; the candidate select compiles to cmov).
[[nodiscard]] inline std::uint32_t lower_bound_scalar(
    const Key* slot_keys, const std::uint32_t* slot_pos, std::uint32_t n,
    Key y) {
  const std::uint32_t nblocks = num_blocks(n);
  std::uint32_t k = 0;
  std::uint32_t res = n;
  while (k < nblocks) {
    const std::size_t base = std::size_t{k} * kBlock;
    const std::uint32_t c = rank_block_scalar(slot_keys + base, y);
    // c == kBlock reads slot 7 harmlessly; the select keeps `res`.
    const std::uint32_t cand = slot_pos[base + (c & (kBlock - 1))];
    res = c < kBlock ? cand : res;
    k = k * kFan + c + 1;
  }
  return res;
}

#if defined(COOPSEARCH_SIMD_X86)

/// How many of the 8 keys at b are < y (y splat in yv).
__attribute__((target("avx2"))) [[nodiscard]] inline std::uint32_t
rank_block_avx2(const Key* b, __m256i yv) {
  const __m256i k0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  const __m256i k1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4));
  const __m256i lt0 = _mm256_cmpgt_epi64(yv, k0);  // key < y  <=>  y > key
  const __m256i lt1 = _mm256_cmpgt_epi64(yv, k1);
  const int m = (_mm256_movemask_pd(_mm256_castsi256_pd(lt1)) << 4) |
                _mm256_movemask_pd(_mm256_castsi256_pd(lt0));
  return static_cast<std::uint32_t>(__builtin_popcount(m));
}

__attribute__((target("avx2"))) [[nodiscard]] inline std::uint32_t
lower_bound_avx2(const Key* slot_keys, const std::uint32_t* slot_pos,
                 std::uint32_t n, Key y) {
  const std::uint32_t nblocks = num_blocks(n);
  const __m256i yv = _mm256_set1_epi64x(y);
  std::uint32_t k = 0;
  std::uint32_t res = n;
  while (k < nblocks) {
    const std::size_t base = std::size_t{k} * kBlock;
    const std::uint32_t c = rank_block_avx2(slot_keys + base, yv);
    const std::uint32_t cand = slot_pos[base + (c & (kBlock - 1))];
    res = c < kBlock ? cand : res;
    k = k * kFan + c + 1;
  }
  return res;
}

#endif  // COOPSEARCH_SIMD_X86

/// Rank of the first key >= y in the sorted slice the layout was built
/// from; n when every key is < y.  Runtime-dispatched.
[[nodiscard]] inline std::uint32_t lower_bound(const Key* slot_keys,
                                               const std::uint32_t* slot_pos,
                                               std::uint32_t n, Key y) {
#if defined(COOPSEARCH_SIMD_X86)
  if (dispatch_is_avx2()) {
    return lower_bound_avx2(slot_keys, slot_pos, n, y);
  }
#endif
  return lower_bound_scalar(slot_keys, slot_pos, n, y);
}

/// One catalog descent of a lockstep group (see lower_bound_grouped).
struct GroupedQuery {
  const Key* slot_keys = nullptr;
  const std::uint32_t* slot_pos = nullptr;
  std::uint32_t n = 0;
  Key y = 0;
};

inline void prefetch_block(const Key* slot_keys,
                           const std::uint32_t* slot_pos, std::size_t base) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(slot_keys + base, 0, 3);
  __builtin_prefetch(slot_pos + base, 0, 3);
#else
  (void)slot_keys;
  (void)slot_pos;
  (void)base;
#endif
}

/// Software-pipelined lockstep descent: advance every query one level
/// per round, prefetching each query's *next* block as soon as its index
/// is known, so the g memory accesses of a level overlap instead of
/// serializing.  out[i] receives lower_bound(qs[i]); qs[i].n == 0 yields
/// out[i] == 0 without touching its (possibly null) pointers.
inline void lower_bound_grouped_scalar(const GroupedQuery* qs,
                                       std::uint32_t* out, std::size_t g) {
  std::uint32_t k[64];
  std::uint32_t nb[64];
  std::uint32_t res[64];
  for (std::size_t i = 0; i < g; ++i) {
    k[i] = 0;
    nb[i] = num_blocks(qs[i].n);
    res[i] = qs[i].n;
    if (nb[i] > 0) {
      prefetch_block(qs[i].slot_keys, qs[i].slot_pos, 0);
    }
  }
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < g; ++i) {
      if (k[i] >= nb[i]) {
        continue;
      }
      const std::size_t base = std::size_t{k[i]} * kBlock;
      const std::uint32_t c = rank_block_scalar(qs[i].slot_keys + base,
                                                qs[i].y);
      const std::uint32_t cand = qs[i].slot_pos[base + (c & (kBlock - 1))];
      res[i] = c < kBlock ? cand : res[i];
      k[i] = k[i] * kFan + c + 1;
      if (k[i] < nb[i]) {
        prefetch_block(qs[i].slot_keys, qs[i].slot_pos,
                       std::size_t{k[i]} * kBlock);
        any = true;
      }
    }
  }
  for (std::size_t i = 0; i < g; ++i) {
    out[i] = res[i];
  }
}

#if defined(COOPSEARCH_SIMD_X86)

__attribute__((target("avx2"))) inline void lower_bound_grouped_avx2(
    const GroupedQuery* qs, std::uint32_t* out, std::size_t g) {
  std::uint32_t k[64];
  std::uint32_t nb[64];
  std::uint32_t res[64];
  __m256i yv[64];
  for (std::size_t i = 0; i < g; ++i) {
    k[i] = 0;
    nb[i] = num_blocks(qs[i].n);
    res[i] = qs[i].n;
    yv[i] = _mm256_set1_epi64x(qs[i].y);
    if (nb[i] > 0) {
      prefetch_block(qs[i].slot_keys, qs[i].slot_pos, 0);
    }
  }
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < g; ++i) {
      if (k[i] >= nb[i]) {
        continue;
      }
      const std::size_t base = std::size_t{k[i]} * kBlock;
      const std::uint32_t c = rank_block_avx2(qs[i].slot_keys + base, yv[i]);
      const std::uint32_t cand = qs[i].slot_pos[base + (c & (kBlock - 1))];
      res[i] = c < kBlock ? cand : res[i];
      k[i] = k[i] * kFan + c + 1;
      if (k[i] < nb[i]) {
        prefetch_block(qs[i].slot_keys, qs[i].slot_pos,
                       std::size_t{k[i]} * kBlock);
        any = true;
      }
    }
  }
  for (std::size_t i = 0; i < g; ++i) {
    out[i] = res[i];
  }
}

#endif  // COOPSEARCH_SIMD_X86

/// Runtime-dispatched grouped descent; g must be <= 64 (callers group by
/// QueryEngine's kPathGroup = 16).
inline void lower_bound_grouped(const GroupedQuery* qs, std::uint32_t* out,
                                std::size_t g) {
#if defined(COOPSEARCH_SIMD_X86)
  if (dispatch_is_avx2()) {
    lower_bound_grouped_avx2(qs, out, g);
    return;
  }
#endif
  lower_bound_grouped_scalar(qs, out, g);
}

}  // namespace serve::simd
