#pragma once
// Private plumbing for the translation unit that defines the SIMD kernels
// (pram/simd.cpp); include it from nowhere else.
//
// Each kernel `fn` has a portable `fn_scalar` body (the reference
// semantics) and, on x86-64, an `fn_avx2` body marked NCPM_TARGET_AVX2:
// the per-function target attribute lets the file compile without -mavx2,
// and the dispatcher only reaches the body after the CPUID check.
//
// NCPM_DISPATCH(fn, args...) is the one dispatch rule: inside a function
// whose `SimdTier tier` parameter names the requested tier, it returns
// `fn_avx2(args...)` when that tier resolves to AVX2 on this CPU and
// `fn_scalar(args...)` otherwise.

#include "pram/simd.hpp"

namespace ncpm::pram {

/// `tier` capped at detected_simd_tier(): an explicit tier this CPU lacks
/// runs scalar (parity, not speed, is the contract for a requested tier).
SimdTier clamp_simd_tier(SimdTier tier) noexcept;

}  // namespace ncpm::pram

#if defined(__x86_64__) || defined(_M_X64)
#define NCPM_SIMD_X86 1
#include <immintrin.h>
#define NCPM_TARGET_AVX2 __attribute__((target("avx2")))
#define NCPM_DISPATCH(fn, ...)                                               \
  if (::ncpm::pram::clamp_simd_tier(tier) == ::ncpm::pram::SimdTier::kAvx2) \
    return fn##_avx2(__VA_ARGS__);                                           \
  return fn##_scalar(__VA_ARGS__)
#else
#define NCPM_SIMD_X86 0
#define NCPM_DISPATCH(fn, ...) \
  (void)tier;                  \
  return fn##_scalar(__VA_ARGS__)
#endif
