#include "pram/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

// Each kernel `fn` has a portable `fn_scalar` body (the reference
// semantics) and, on x86-64, an `fn_avx2` body marked NCPM_TARGET_AVX2:
// the per-function target attribute lets the file compile without -mavx2,
// and the dispatcher only reaches the body after the CPUID check.
//
// NCPM_DISPATCH(fn, args...) is the one dispatch rule: inside a function
// whose `SimdTier tier` parameter names the requested tier, it returns
// `fn_avx2(args...)` when that tier resolves to AVX2 on this CPU and
// `fn_scalar(args...)` otherwise.
#if defined(__x86_64__) || defined(_M_X64)
#define NCPM_SIMD_X86 1
#include <immintrin.h>
#define NCPM_TARGET_AVX2 __attribute__((target("avx2")))
#define NCPM_DISPATCH(fn, ...)                  \
  if (clamp_simd_tier(tier) == SimdTier::kAvx2) \
    return fn##_avx2(__VA_ARGS__);              \
  return fn##_scalar(__VA_ARGS__)
#else
#define NCPM_SIMD_X86 0
#define NCPM_DISPATCH(fn, ...) \
  (void)tier;                  \
  return fn##_scalar(__VA_ARGS__)
#endif

namespace ncpm::pram {

// ---------------------------------------------------------------------------
// Tier selection

namespace {

std::atomic<int> g_forced{-1};  // -1 = no force_simd_tier() override

/// `tier` capped at detected_simd_tier(): an explicit tier this CPU lacks
/// runs scalar (parity, not speed, is the contract for a requested tier).
SimdTier clamp_simd_tier(SimdTier tier) noexcept {
  return detected_simd_tier() == SimdTier::kAvx2 ? tier : SimdTier::kScalar;
}

// The detected tier capped by NCPM_SIMD, resolved on first use. The
// function-local static makes that resolution, and its warning, happen
// exactly once even when several threads reach it at the same time.
SimdTier env_capped_tier() noexcept {
  static const SimdTier tier = [] {
    const char* env = std::getenv("NCPM_SIMD");
    if (env == nullptr) return detected_simd_tier();
    const std::string_view value = env;
    if (const auto parsed = parse_simd_tier(value)) return clamp_simd_tier(*parsed);
    std::fprintf(stderr,
                 "ncpm: ignoring unknown NCPM_SIMD value '%s' "
                 "(expected avx2|scalar)\n",
                 env);
    return detected_simd_tier();
  }();
  return tier;
}

}  // namespace

SimdTier detected_simd_tier() noexcept {
#if NCPM_SIMD_X86
  static const SimdTier tier =
      __builtin_cpu_supports("avx2") ? SimdTier::kAvx2 : SimdTier::kScalar;
  return tier;
#else
  return SimdTier::kScalar;
#endif
}

SimdTier active_simd_tier() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdTier>(forced);
  return env_capped_tier();
}

void force_simd_tier(SimdTier tier) noexcept {
  g_forced.store(static_cast<int>(clamp_simd_tier(tier)), std::memory_order_relaxed);
}

void clear_forced_simd_tier() noexcept {
  g_forced.store(-1, std::memory_order_relaxed);
}

std::string_view simd_tier_name(SimdTier tier) noexcept {
  return tier == SimdTier::kAvx2 ? "avx2" : "scalar";
}

std::optional<SimdTier> parse_simd_tier(std::string_view name) noexcept {
  if (name == "avx2") return SimdTier::kAvx2;
  if (name == "scalar") return SimdTier::kScalar;
  return std::nullopt;
}

namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier
//
// These are the reference semantics the AVX2 tier must reproduce
// bit-for-bit.

void window_min_round_scalar(const std::int64_t* val, const std::int32_t* jump,
                             std::int64_t* nval, std::int32_t* njump,
                             std::size_t lo, std::size_t hi) noexcept {
  for (std::size_t v = lo; v < hi; ++v) {
    const std::int32_t j = jump[v];
    const std::int64_t a = val[v];
    const std::int64_t b = val[static_cast<std::size_t>(j)];
    nval[v] = b < a ? b : a;  // std::min semantics: ties keep val[v]
    njump[v] = jump[static_cast<std::size_t>(j)];
  }
}

bool list_rank_round_scalar(const std::int32_t* next, const std::int32_t* head,
                            const std::int64_t* rank, std::int32_t* nhead,
                            std::int64_t* nrank, std::size_t lo, std::size_t hi) noexcept {
  bool settled = true;
  for (std::size_t v = lo; v < hi; ++v) {
    const std::int32_t h = head[v];
    const std::int32_t hh = head[static_cast<std::size_t>(h)];
    nrank[v] = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(rank[v]) +
        static_cast<std::uint64_t>(rank[static_cast<std::size_t>(h)]));
    nhead[v] = hh;
    // Settled: the head did not move, and a vertex that is its own head is
    // a terminal of `next` (not a cycle vertex whose length divides 2^k).
    settled &= hh == h;
    if (h == static_cast<std::int32_t>(v)) settled &= next[v] == h;
  }
  return settled;
}

#if NCPM_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 tier

NCPM_TARGET_AVX2
void window_min_round_avx2(const std::int64_t* val, const std::int32_t* jump,
                           std::int64_t* nval, std::int32_t* njump,
                           std::size_t lo, std::size_t hi) noexcept {
  std::size_t v = lo;
  for (; v + 4 <= hi; v += 4) {
    __m128i j = _mm_loadu_si128(reinterpret_cast<const __m128i*>(jump + v));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(val + v));
    __m256i b = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(val), j, 8);
    // min_epi64 needs AVX-512; emulate with cmpgt + blendv. Picking b only
    // when a > b reproduces std::min's tie-keeps-a behaviour exactly.
    __m256i gt = _mm256_cmpgt_epi64(a, b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(nval + v),
                        _mm256_blendv_epi8(a, b, gt));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(njump + v),
                     _mm_i32gather_epi32(reinterpret_cast<const int*>(jump), j, 4));
  }
  window_min_round_scalar(val, jump, nval, njump, v, hi);
}

NCPM_TARGET_AVX2
bool list_rank_round_avx2(const std::int32_t* next, const std::int32_t* head,
                          const std::int64_t* rank, std::int32_t* nhead,
                          std::int64_t* nrank, std::size_t lo, std::size_t hi) noexcept {
  std::size_t v = lo;
  // All-ones lanes while every vertex seen so far is settled (see the
  // scalar body); `self` holds the vertex ids v..v+3. `next` is read only
  // for chunks where some vertex is its own head, which keeps long-list
  // rounds at the memory traffic of the plain doubling step.
  __m128i settled = _mm_set1_epi32(-1);
  __m128i self = _mm_add_epi32(_mm_set1_epi32(static_cast<int>(lo)), _mm_setr_epi32(0, 1, 2, 3));
  const __m128i four = _mm_set1_epi32(4);
  for (; v + 4 <= hi; v += 4) {
    __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(head + v));
    __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rank + v));
    __m256i rh = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(rank), h, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(nrank + v),
                        _mm256_add_epi64(r, rh));
    __m128i hh = _mm_i32gather_epi32(reinterpret_cast<const int*>(head), h, 4);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(nhead + v), hh);
    settled = _mm_and_si128(settled, _mm_cmpeq_epi32(hh, h));
    const __m128i fixed = _mm_cmpeq_epi32(h, self);
    if (_mm_movemask_epi8(fixed) != 0) {
      __m128i nx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(next + v));
      settled = _mm_andnot_si128(_mm_andnot_si128(_mm_cmpeq_epi32(nx, self), fixed), settled);
    }
    self = _mm_add_epi32(self, four);
  }
  const bool tail = list_rank_round_scalar(next, head, rank, nhead, nrank, v, hi);
  return tail && _mm_movemask_epi8(settled) == 0xFFFF;
}

#endif  // NCPM_SIMD_X86

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch (AVX2 when `tier` resolves to it on this CPU, else scalar)

void window_min_round(SimdTier tier, const std::int64_t* val,
                      const std::int32_t* jump, std::int64_t* nval,
                      std::int32_t* njump, std::size_t lo, std::size_t hi) noexcept {
  NCPM_DISPATCH(window_min_round, val, jump, nval, njump, lo, hi);
}

bool list_rank_round(SimdTier tier, const std::int32_t* next, const std::int32_t* head,
                     const std::int64_t* rank, std::int32_t* nhead,
                     std::int64_t* nrank, std::size_t lo, std::size_t hi) noexcept {
  NCPM_DISPATCH(list_rank_round, next, head, rank, nhead, nrank, lo, hi);
}

}  // namespace simd
}  // namespace ncpm::pram
