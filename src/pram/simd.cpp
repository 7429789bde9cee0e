#include "pram/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "pram/simd_kernel.hpp"

namespace ncpm::pram {

// ---------------------------------------------------------------------------
// Tier selection

namespace {

std::atomic<int> g_forced{-1};  // -1 = no force_simd_tier() override

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

SimdTier clamp_simd_tier(SimdTier tier) noexcept {
  return detected_simd_tier() == SimdTier::kAvx2 ? tier : SimdTier::kScalar;
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
// bit-for-bit. Sums and scans run in the corresponding unsigned type so
// overflow wraps mod 2^w in every tier (and matches what the signed
// wrappers produce on this target).

std::uint32_t sum_u32_scalar(const std::uint32_t* x, std::size_t n) noexcept {
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

std::uint64_t sum_u64_scalar(const std::uint64_t* x, std::size_t n) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

std::uint32_t exscan_u32_scalar(const std::uint32_t* in, std::uint32_t* out,
                                std::size_t n, std::uint32_t carry) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = in[i];  // tolerate in == out aliasing
    out[i] = carry;
    carry += v;
  }
  return carry;
}

std::uint64_t exscan_u64_scalar(const std::uint64_t* in, std::uint64_t* out,
                                std::size_t n, std::uint64_t carry) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = in[i];
    out[i] = carry;
    carry += v;
  }
  return carry;
}

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
std::uint32_t sum_u32_avx2(const std::uint32_t* x, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_epi32(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  std::uint32_t r = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  for (; i < n; ++i) r += x[i];
  return r;
}

NCPM_TARGET_AVX2
std::uint64_t sum_u64_avx2(const std::uint64_t* x, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)));
  }
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  std::uint64_t r =
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
  for (; i < n; ++i) r += x[i];
  return r;
}

NCPM_TARGET_AVX2
std::uint32_t exscan_u32_avx2(const std::uint32_t* in, std::uint32_t* out,
                              std::size_t n, std::uint32_t carry) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i bcast3 = _mm256_set1_epi32(3);
  const __m256i rot1 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  __m256i vcarry = _mm256_set1_epi32(static_cast<int>(carry));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    // In-lane inclusive prefix, then propagate the low lane's total.
    __m256i s = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    s = _mm256_add_epi32(s, _mm256_slli_si256(s, 8));
    __m256i low_total = _mm256_permutevar8x32_epi32(s, bcast3);
    low_total = _mm256_blend_epi32(zero, low_total, 0xF0);
    s = _mm256_add_epi32(s, low_total);  // inclusive prefix of the block
    __m256i excl = _mm256_permutevar8x32_epi32(s, rot1);  // rotate right by 1
    excl = _mm256_blend_epi32(excl, zero, 0x01);          // element 0 -> 0
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(excl, vcarry));
    carry += static_cast<std::uint32_t>(_mm256_extract_epi32(s, 7));
    vcarry = _mm256_set1_epi32(static_cast<int>(carry));
  }
  return exscan_u32_scalar(in + i, out + i, n - i, carry);
}

NCPM_TARGET_AVX2
std::uint64_t exscan_u64_avx2(const std::uint64_t* in, std::uint64_t* out,
                              std::size_t n, std::uint64_t carry) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  __m256i vcarry = _mm256_set1_epi64x(static_cast<long long>(carry));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    __m256i s = _mm256_add_epi64(x, _mm256_slli_si256(x, 8));  // [a,a+b | c,c+d]
    __m256i low_total = _mm256_permute4x64_epi64(s, _MM_SHUFFLE(1, 1, 1, 1));
    low_total = _mm256_blend_epi32(zero, low_total, 0xF0);
    s = _mm256_add_epi64(s, low_total);  // inclusive prefix of the block
    __m256i excl = _mm256_permute4x64_epi64(s, _MM_SHUFFLE(2, 1, 0, 0));
    excl = _mm256_blend_epi32(excl, zero, 0x03);  // element 0 -> 0
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(excl, vcarry));
    carry += static_cast<std::uint64_t>(_mm256_extract_epi64(s, 3));
    vcarry = _mm256_set1_epi64x(static_cast<long long>(carry));
  }
  return exscan_u64_scalar(in + i, out + i, n - i, carry);
}

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

std::uint32_t sum_u32(SimdTier tier, const std::uint32_t* x, std::size_t n) noexcept {
  NCPM_DISPATCH(sum_u32, x, n);
}
std::uint64_t sum_u64(SimdTier tier, const std::uint64_t* x, std::size_t n) noexcept {
  NCPM_DISPATCH(sum_u64, x, n);
}
// Signed variants run the unsigned kernels on the same bits: int32/uint32
// (and int64/uint64) may alias, and wrap-around addition is bit-identical.
std::int32_t sum_i32(SimdTier tier, const std::int32_t* x, std::size_t n) noexcept {
  return static_cast<std::int32_t>(
      sum_u32(tier, reinterpret_cast<const std::uint32_t*>(x), n));
}
std::int64_t sum_i64(SimdTier tier, const std::int64_t* x, std::size_t n) noexcept {
  return static_cast<std::int64_t>(
      sum_u64(tier, reinterpret_cast<const std::uint64_t*>(x), n));
}

std::uint32_t exscan_u32(SimdTier tier, const std::uint32_t* in, std::uint32_t* out,
                         std::size_t n, std::uint32_t carry) noexcept {
  NCPM_DISPATCH(exscan_u32, in, out, n, carry);
}
std::uint64_t exscan_u64(SimdTier tier, const std::uint64_t* in, std::uint64_t* out,
                         std::size_t n, std::uint64_t carry) noexcept {
  NCPM_DISPATCH(exscan_u64, in, out, n, carry);
}
std::int32_t exscan_i32(SimdTier tier, const std::int32_t* in, std::int32_t* out,
                        std::size_t n, std::int32_t carry) noexcept {
  return static_cast<std::int32_t>(
      exscan_u32(tier, reinterpret_cast<const std::uint32_t*>(in),
                 reinterpret_cast<std::uint32_t*>(out), n,
                 static_cast<std::uint32_t>(carry)));
}
std::int64_t exscan_i64(SimdTier tier, const std::int64_t* in, std::int64_t* out,
                        std::size_t n, std::int64_t carry) noexcept {
  return static_cast<std::int64_t>(
      exscan_u64(tier, reinterpret_cast<const std::uint64_t*>(in),
                 reinterpret_cast<std::uint64_t*>(out), n,
                 static_cast<std::uint64_t>(carry)));
}

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
