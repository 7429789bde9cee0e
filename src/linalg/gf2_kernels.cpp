#include "linalg/gf2_kernels.hpp"

#include <bit>

#include "pram/simd_kernel.hpp"

namespace ncpm::linalg::gf2k {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier (the reference semantics)

void row_xor_scalar(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) noexcept {
  for (std::size_t w = 0; w < n; ++w) dst[w] ^= src[w];
}

void row_or_scalar(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) noexcept {
  for (std::size_t w = 0; w < n; ++w) dst[w] |= src[w];
}

std::uint64_t popcount_words_scalar(const std::uint64_t* a, std::size_t n) noexcept {
  std::uint64_t c = 0;
  for (std::size_t w = 0; w < n; ++w) {
    c += static_cast<std::uint64_t>(std::popcount(a[w]));
  }
  return c;
}

std::uint64_t and_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                  std::size_t n) noexcept {
  std::uint64_t c = 0;
  for (std::size_t w = 0; w < n; ++w) {
    c += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  return c;
}

std::size_t find_pivot_scalar(const std::uint64_t* words, std::size_t stride,
                              std::size_t word_index, std::uint64_t mask,
                              std::size_t row_begin, std::size_t row_end) noexcept {
  for (std::size_t r = row_begin; r < row_end; ++r) {
    if ((words[r * stride + word_index] & mask) != 0) return r;
  }
  return row_end;
}

std::size_t mask_nonzero_count_scalar(const std::uint8_t* mask, std::size_t n) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += mask[i] != 0 ? 1 : 0;
  return c;
}

#if NCPM_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 tier

NCPM_TARGET_AVX2
void row_xor_avx2(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t n) noexcept {
  std::size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    __m256i d1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w + 4));
    __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), _mm256_xor_si256(d0, s0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w + 4),
                        _mm256_xor_si256(d1, s1));
  }
  for (; w + 4 <= n; w += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), _mm256_xor_si256(d, s));
  }
  row_xor_scalar(dst + w, src + w, n - w);
}

NCPM_TARGET_AVX2
void row_or_avx2(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t n) noexcept {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), _mm256_or_si256(d, s));
  }
  row_or_scalar(dst + w, src + w, n - w);
}

// Nibble-LUT popcount (Mula): per-byte counts via pshufb, horizontal sum
// into 4 u64 partials via psadbw.
NCPM_TARGET_AVX2
inline __m256i popcount256(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

NCPM_TARGET_AVX2
std::uint64_t popcount_words_avx2(const std::uint64_t* a, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    acc = _mm256_add_epi64(acc, popcount256(v));
  }
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  std::uint64_t c =
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
  return c + popcount_words_scalar(a + w, n - w);
}

NCPM_TARGET_AVX2
std::uint64_t and_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_and_si256(va, vb)));
  }
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  std::uint64_t c =
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
  return c + and_popcount_scalar(a + w, b + w, n - w);
}

NCPM_TARGET_AVX2
std::size_t find_pivot_avx2(const std::uint64_t* words, std::size_t stride,
                            std::size_t word_index, std::uint64_t mask,
                            std::size_t row_begin, std::size_t row_end) noexcept {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const std::int64_t s = static_cast<std::int64_t>(stride);
  std::size_t r = row_begin;
  for (; r + 4 <= row_end; r += 4) {
    const std::int64_t base =
        static_cast<std::int64_t>(r) * s + static_cast<std::int64_t>(word_index);
    const __m256i vidx = _mm256_setr_epi64x(base, base + s, base + 2 * s, base + 3 * s);
    __m256i w = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(words), vidx, 8);
    __m256i hit = _mm256_and_si256(w, vmask);
    if (!_mm256_testz_si256(hit, hit)) {
      return find_pivot_scalar(words, stride, word_index, mask, r, r + 4);
    }
  }
  return find_pivot_scalar(words, stride, word_index, mask, r, row_end);
}

NCPM_TARGET_AVX2
std::size_t mask_nonzero_count_avx2(const std::uint8_t* mask, std::size_t n) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    const unsigned zeros =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(b, zero)));
    c += 32 - static_cast<std::size_t>(std::popcount(zeros));
  }
  return c + mask_nonzero_count_scalar(mask + i, n - i);
}

#endif  // NCPM_SIMD_X86

}  // namespace

void row_xor(SimdTier tier, std::uint64_t* dst, const std::uint64_t* src,
             std::size_t n) noexcept {
  NCPM_DISPATCH(row_xor, dst, src, n);
}

void row_or(SimdTier tier, std::uint64_t* dst, const std::uint64_t* src,
            std::size_t n) noexcept {
  NCPM_DISPATCH(row_or, dst, src, n);
}

std::uint64_t popcount_words(SimdTier tier, const std::uint64_t* a,
                             std::size_t n) noexcept {
  NCPM_DISPATCH(popcount_words, a, n);
}

std::uint64_t and_popcount(SimdTier tier, const std::uint64_t* a,
                           const std::uint64_t* b, std::size_t n) noexcept {
  NCPM_DISPATCH(and_popcount, a, b, n);
}

std::size_t find_pivot(SimdTier tier, const std::uint64_t* words, std::size_t stride,
                       std::size_t word_index, std::uint64_t mask,
                       std::size_t row_begin, std::size_t row_end) noexcept {
  NCPM_DISPATCH(find_pivot, words, stride, word_index, mask, row_begin, row_end);
}

std::size_t mask_nonzero_count(SimdTier tier, const std::uint8_t* mask,
                               std::size_t n) noexcept {
  NCPM_DISPATCH(mask_nonzero_count, mask, n);
}

}  // namespace ncpm::linalg::gf2k
