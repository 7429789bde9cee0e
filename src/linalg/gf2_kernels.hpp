#pragma once
// Word-level GF(2) kernels with runtime SIMD dispatch.
//
// Everything `BitMatrix` does per row — XOR/OR a row into another,
// popcount, probe a pivot column — bottoms out in one of these kernels.
// They follow the tier contract of pram/simd.hpp: AVX2 and scalar
// variants, selected by `pram::active_simd_tier()` (or an explicit tier
// for the parity tests), the AVX2 tier bit-exact against scalar, tails
// handled by the scalar loop so nothing reads past the span.
//
// The AVX2 popcount is the classic nibble-LUT + psadbw reduction (AVX2
// has no vpopcntq); the strided pivot probe is a 4-row gather.

#include <cstddef>
#include <cstdint>

#include "pram/simd.hpp"

namespace ncpm::linalg::gf2k {

using pram::SimdTier;

/// dst[w] ^= src[w] for w in [0, n) — the elimination/product inner loop.
void row_xor(SimdTier tier, std::uint64_t* dst, const std::uint64_t* src,
             std::size_t n) noexcept;
inline void row_xor(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) noexcept {
  row_xor(pram::active_simd_tier(), dst, src, n);
}

/// dst[w] |= src[w] for w in [0, n) — the boolean-semiring inner loop.
void row_or(SimdTier tier, std::uint64_t* dst, const std::uint64_t* src,
            std::size_t n) noexcept;
inline void row_or(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) noexcept {
  row_or(pram::active_simd_tier(), dst, src, n);
}

/// popcount(a[0..n)) — set bits in a packed row.
std::uint64_t popcount_words(SimdTier tier, const std::uint64_t* a,
                             std::size_t n) noexcept;
inline std::uint64_t popcount_words(const std::uint64_t* a, std::size_t n) noexcept {
  return popcount_words(pram::active_simd_tier(), a, n);
}

/// popcount(a & b) — AND-reduce two packed rows (row intersection size).
std::uint64_t and_popcount(SimdTier tier, const std::uint64_t* a,
                           const std::uint64_t* b, std::size_t n) noexcept;
inline std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                  std::size_t n) noexcept {
  return and_popcount(pram::active_simd_tier(), a, b, n);
}

/// Pivot search: smallest r in [row_begin, row_end) with
/// (words[r * stride + word_index] & mask) != 0; row_end if none.
/// (The strided column probe of Gaussian elimination.)
std::size_t find_pivot(SimdTier tier, const std::uint64_t* words, std::size_t stride,
                       std::size_t word_index, std::uint64_t mask,
                       std::size_t row_begin, std::size_t row_end) noexcept;
inline std::size_t find_pivot(const std::uint64_t* words, std::size_t stride,
                              std::size_t word_index, std::uint64_t mask,
                              std::size_t row_begin, std::size_t row_end) noexcept {
  return find_pivot(pram::active_simd_tier(), words, stride, word_index, mask,
                    row_begin, row_end);
}

/// Number of nonzero bytes in mask[0..n) — alive-edge count of a byte mask.
std::size_t mask_nonzero_count(SimdTier tier, const std::uint8_t* mask,
                               std::size_t n) noexcept;
inline std::size_t mask_nonzero_count(const std::uint8_t* mask, std::size_t n) noexcept {
  return mask_nonzero_count(pram::active_simd_tier(), mask, n);
}

}  // namespace ncpm::linalg::gf2k
