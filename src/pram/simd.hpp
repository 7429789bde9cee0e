#pragma once
// Runtime-dispatched SIMD substrate for the doubling rounds.
//
// Two kernels carry an AVX2 body: the list-rank and window-min rounds of
// pointer jumping (pram/list_ranking.hpp), whose gathers the vector unit
// speeds up measurably. Everything else, the blocked prefix sums of
// pram/scan.hpp included, is plain portable C++ that the compiler
// vectorises as it can: a hand-written AVX2 scan tier measured no faster
// end to end. Each kernel exists in two tiers, AVX2 and portable scalar,
// selected once at runtime.
//
// Tier selection:
//   * `detected_simd_tier()` probes the CPU once (CPUID via
//     __builtin_cpu_supports on x86-64): AVX2 if present, else scalar —
//     also on an x86-64 CPU without AVX2.
//   * `NCPM_SIMD=avx2|scalar` caps the tier from the environment (read
//     once, clamped to what the CPU supports). Any other value warns once
//     on stderr and is ignored.
//   * `force_simd_tier()` / `clear_forced_simd_tier()` override both at
//     runtime — the dispatch-parity tests and the A/B benches sweep tiers
//     with it. The active tier is one relaxed atomic load on the hot path.
//
// Contract: the AVX2 tier of every kernel is BIT-EXACT against the scalar
// tier — the kernels only reorder exact integer operations (wrap-around
// addition and min), never floating point.
// tests/pram/simd_dispatch_test.cpp enforces this per tier on adversarial
// lengths, and the oracle grids sweep tiers end-to-end. Vector bodies use
// unaligned loads and hand the tail (< one vector) to the scalar loop, so
// no kernel ever reads past its spans (the ASan CI job gates this).
//
// Every kernel has two forms: `kernel(args...)` runs on the active tier;
// `kernel(tier, args...)` runs an explicit tier (tests, benches). An AVX2
// request on a build or CPU without AVX2 silently runs scalar — parity,
// not speed, is the guarantee for an explicitly requested tier.

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

namespace ncpm::pram {

// The values are exported as-is (the ncpm_engine_simd_tier gauge, bench
// "simd_tier" counters), so kAvx2 stays 2 even though 1 is unused.
enum class SimdTier : std::uint8_t {
  kScalar = 0,
  kAvx2 = 2,
};

/// Best tier this CPU supports (probed once, cached).
SimdTier detected_simd_tier() noexcept;

/// The tier kernels dispatch to: min(detected, NCPM_SIMD cap, forced tier).
SimdTier active_simd_tier() noexcept;

/// Pin the active tier (clamped to the detected tier) until cleared.
/// Takes effect for subsequent kernel calls; do not flip it concurrently
/// with kernels in flight if the A/B attribution matters.
void force_simd_tier(SimdTier tier) noexcept;
void clear_forced_simd_tier() noexcept;

std::string_view simd_tier_name(SimdTier tier) noexcept;
std::optional<SimdTier> parse_simd_tier(std::string_view name) noexcept;

// ---------------------------------------------------------------------------
// Cache-line-aligned scratch
//
// Tiled kernels want their spans to start on a cache-line boundary so a
// vector never straddles two lines (and two lanes never share a line at a
// block seam). Workspace pools allocate through this allocator,
// so every leased buffer is 64-byte aligned.

inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() noexcept = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector whose storage starts on a cache-line boundary.
template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

namespace simd {

// ---------------------------------------------------------------------------
// Doubling-round kernels (pointer jumping)
//
// One round over v in [lo, hi); the index arrays (`jump` / `head`) may
// point anywhere in the full array, so gathers range beyond [lo, hi).

/// nval[v] = min(val[v], val[jump[v]]); njump[v] = jump[jump[v]].
void window_min_round(SimdTier tier, const std::int64_t* val, const std::int32_t* jump,
                      std::int64_t* nval, std::int32_t* njump, std::size_t lo,
                      std::size_t hi) noexcept;
inline void window_min_round(const std::int64_t* val, const std::int32_t* jump,
                             std::int64_t* nval, std::int32_t* njump, std::size_t lo,
                             std::size_t hi) noexcept {
  window_min_round(active_simd_tier(), val, jump, nval, njump, lo, hi);
}

/// nrank[v] = rank[v] + rank[head[v]]; nhead[v] = head[head[v]]. Returns
/// true iff every v in [lo, hi) is settled: head[head[v]] == head[v], and
/// head[v] == v only where v is a terminal of `next` (next[v] == v). When
/// every block is settled, every head is a terminal and the round was a
/// no-op (nhead == head, nrank == rank for the terminal-rank-0 convention).
bool list_rank_round(SimdTier tier, const std::int32_t* next, const std::int32_t* head,
                     const std::int64_t* rank, std::int32_t* nhead, std::int64_t* nrank,
                     std::size_t lo, std::size_t hi) noexcept;
inline bool list_rank_round(const std::int32_t* next, const std::int32_t* head,
                            const std::int64_t* rank, std::int32_t* nhead,
                            std::int64_t* nrank, std::size_t lo, std::size_t hi) noexcept {
  return list_rank_round(active_simd_tier(), next, head, rank, nhead, nrank, lo, hi);
}

}  // namespace simd
}  // namespace ncpm::pram
