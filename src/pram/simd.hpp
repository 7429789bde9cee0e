#pragma once
// Runtime-dispatched SIMD substrate for the round kernels.
//
// PR 2 made the per-round work proportional to the surviving edges; the
// remaining constant factor is memory layout and instruction throughput.
// This header is the seam between the two: every element-level hot loop
// in the tree (blocked sums and scans, mask-to-flag conversion, and the
// list-rank and window-min doubling rounds, all here in pram/) funnels
// through a kernel that exists in two tiers — AVX2 and portable scalar —
// selected once at runtime.
//
// Tier selection:
//   * `detected_simd_tier()` probes the CPU once (CPUID via
//     __builtin_cpu_supports on x86-64): AVX2 if present, else scalar —
//     also on an x86-64 CPU without AVX2.
//   * `NCPM_SIMD=avx2|scalar` caps the tier from the environment (read
//     once, clamped to what the CPU supports). `sse2`, the name of a tier
//     that no longer exists, caps at scalar with one warning on stderr;
//     other values warn once and are ignored.
//   * `force_simd_tier()` / `clear_forced_simd_tier()` override both at
//     runtime — the dispatch-parity tests and the A/B benches sweep tiers
//     with it. The active tier is one relaxed atomic load on the hot path.
//
// Contract: the AVX2 tier of every kernel is BIT-EXACT against the scalar
// tier — the kernels only reorder exact integer operations (wrap-around
// addition is associative and commutative mod 2^w; min is exact), never
// floating point. tests/pram/simd_dispatch_test.cpp
// enforces this per tier on adversarial lengths, and the oracle grids
// sweep tiers end-to-end. Vector bodies use unaligned loads and hand the
// tail (< one vector) to the scalar loop, so no kernel ever reads past
// its spans (the ASan CI job gates this).
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
#include <type_traits>
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
// vector never straddles two lines (and two pinned lanes never share a
// line at a block seam). Workspace pools allocate through this allocator,
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
// Blocked-scan kernels (the substrate under pram/scan.hpp)
//
// `sum`: fold a block. `exclusive_scan_carry`: out[i] = carry + in[0] +
// ... + in[i-1] over one block; returns carry + sum(block) — exactly the
// fix-up pass of the blocked two-pass scan, so the whole scan is these
// two kernels plus a serial pass over the per-block sums.

std::int32_t sum_i32(SimdTier tier, const std::int32_t* x, std::size_t n) noexcept;
std::uint32_t sum_u32(SimdTier tier, const std::uint32_t* x, std::size_t n) noexcept;
std::int64_t sum_i64(SimdTier tier, const std::int64_t* x, std::size_t n) noexcept;
std::uint64_t sum_u64(SimdTier tier, const std::uint64_t* x, std::size_t n) noexcept;

std::int32_t exscan_i32(SimdTier tier, const std::int32_t* in, std::int32_t* out,
                        std::size_t n, std::int32_t carry) noexcept;
std::uint32_t exscan_u32(SimdTier tier, const std::uint32_t* in, std::uint32_t* out,
                         std::size_t n, std::uint32_t carry) noexcept;
std::int64_t exscan_i64(SimdTier tier, const std::int64_t* in, std::int64_t* out,
                        std::size_t n, std::int64_t carry) noexcept;
std::uint64_t exscan_u64(SimdTier tier, const std::uint64_t* in, std::uint64_t* out,
                         std::size_t n, std::uint64_t carry) noexcept;

/// flags[i] = mask[i] != 0 ? 1 : 0, widened to u32 (the compaction
/// front-half: byte mask -> scan-ready flag array).
void mask_to_flags(SimdTier tier, const std::uint8_t* mask, std::uint32_t* flags,
                   std::size_t n) noexcept;
inline void mask_to_flags(const std::uint8_t* mask, std::uint32_t* flags,
                          std::size_t n) noexcept {
  mask_to_flags(active_simd_tier(), mask, flags, n);
}

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

/// nrank[v] = rank[v] + rank[head[v]]; nhead[v] = head[head[v]].
void list_rank_round(SimdTier tier, const std::int32_t* head, const std::int64_t* rank,
                     std::int32_t* nhead, std::int64_t* nrank, std::size_t lo,
                     std::size_t hi) noexcept;
inline void list_rank_round(const std::int32_t* head, const std::int64_t* rank,
                            std::int32_t* nhead, std::int64_t* nrank, std::size_t lo,
                            std::size_t hi) noexcept {
  list_rank_round(active_simd_tier(), head, rank, nhead, nrank, lo, hi);
}

// ---------------------------------------------------------------------------
// Typed dispatch for the templated scan entry points

template <typename T>
inline constexpr bool has_simd_scan_kernel =
    std::is_same_v<T, std::int32_t> || std::is_same_v<T, std::uint32_t> ||
    std::is_same_v<T, std::int64_t> || std::is_same_v<T, std::uint64_t>;

/// Block fold on an explicit tier; scalar left-fold for types without a
/// typed kernel (exact regardless: integer addition wraps consistently).
template <typename T>
T sum(SimdTier tier, const T* x, std::size_t n) noexcept {
  if constexpr (std::is_same_v<T, std::int32_t>) {
    return sum_i32(tier, x, n);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return sum_u32(tier, x, n);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return sum_i64(tier, x, n);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return sum_u64(tier, x, n);
  } else {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) acc = acc + x[i];
    return acc;
  }
}
template <typename T>
T sum(const T* x, std::size_t n) noexcept {
  return sum<T>(active_simd_tier(), x, n);
}

template <typename T>
T exclusive_scan_carry(SimdTier tier, const T* in, T* out, std::size_t n,
                       T carry) noexcept {
  if constexpr (std::is_same_v<T, std::int32_t>) {
    return exscan_i32(tier, in, out, n, carry);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return exscan_u32(tier, in, out, n, carry);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return exscan_i64(tier, in, out, n, carry);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return exscan_u64(tier, in, out, n, carry);
  } else {
    T acc = carry;
    for (std::size_t i = 0; i < n; ++i) {
      const T v = in[i];
      out[i] = acc;
      acc = acc + v;
    }
    return acc;
  }
}
template <typename T>
T exclusive_scan_carry(const T* in, T* out, std::size_t n, T carry) noexcept {
  return exclusive_scan_carry<T>(active_simd_tier(), in, out, n, carry);
}

}  // namespace simd
}  // namespace ncpm::pram
