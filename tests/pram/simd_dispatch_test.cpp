// Dispatch-parity suite for the SIMD substrate: every tier of every kernel
// must be byte-identical to the scalar tier, on adversarial lengths (empty,
// single vector, one-past-a-vector, non-multiples of the word count) and
// randomized content. The explicit-tier kernel forms are exercised directly;
// the full-path cases force a tier via force_simd_tier and run the public
// entry points (exclusive_scan, compact_indices, list_rank_into,
// window_min_into) across executor widths. An AVX2 request on a
// CPU without AVX2 clamps to scalar, so the sweep is safe on any machine —
// on an AVX2 box it is a genuine AVX2-vs-scalar parity check.

#include "pram/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string_view>
#include <vector>

#include "pram/executor.hpp"
#include "pram/list_ranking.hpp"
#include "pram/scan.hpp"
#include "pram/workspace.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace ncpm::pram {
namespace {

/// Pinned-executor constructors pin the calling (test) thread as lane 0;
/// restore this thread's original affinity mask when the test ends so the
/// rest of the binary keeps the full CPU set.
struct AffinityRestorer {
#if defined(__linux__)
  cpu_set_t saved;
  AffinityRestorer() { sched_getaffinity(0, sizeof(saved), &saved); }
  ~AffinityRestorer() { sched_setaffinity(0, sizeof(saved), &saved); }
#endif
};

// Lengths straddling every vector width in play: 32-byte AVX2 vectors hold
// 4x u64 / 8x u32 / 32x u8, so 63/64/65 and 127/128/129 cross both the
// vector boundary and the unroll boundary; 1000 exercises long tails.
const std::vector<std::size_t> kLengths{0, 1, 2, 3, 7, 8, 63, 64, 65, 127, 128, 129, 1000};

std::vector<SimdTier> tiers_to_test() { return {SimdTier::kScalar, SimdTier::kAvx2}; }

template <typename T>
std::vector<T> random_values(std::size_t n, std::mt19937_64& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng());
  return v;
}

class SimdKernelParity : public ::testing::TestWithParam<SimdTier> {};

TEST_P(SimdKernelParity, SumsMatchScalar) {
  const SimdTier tier = GetParam();
  std::mt19937_64 rng(42);
  for (const std::size_t n : kLengths) {
    const auto u32 = random_values<std::uint32_t>(n, rng);
    const auto u64 = random_values<std::uint64_t>(n, rng);
    const auto i32 = random_values<std::int32_t>(n, rng);
    const auto i64 = random_values<std::int64_t>(n, rng);
    EXPECT_EQ(simd::sum_u32(tier, u32.data(), n),
              simd::sum_u32(SimdTier::kScalar, u32.data(), n))
        << "n=" << n;
    EXPECT_EQ(simd::sum_u64(tier, u64.data(), n),
              simd::sum_u64(SimdTier::kScalar, u64.data(), n))
        << "n=" << n;
    EXPECT_EQ(simd::sum_i32(tier, i32.data(), n),
              simd::sum_i32(SimdTier::kScalar, i32.data(), n))
        << "n=" << n;
    EXPECT_EQ(simd::sum_i64(tier, i64.data(), n),
              simd::sum_i64(SimdTier::kScalar, i64.data(), n))
        << "n=" << n;
  }
}

TEST_P(SimdKernelParity, ExclusiveScansMatchScalar) {
  const SimdTier tier = GetParam();
  std::mt19937_64 rng(43);
  for (const std::size_t n : kLengths) {
    const auto in32 = random_values<std::uint32_t>(n, rng);
    const auto in64 = random_values<std::int64_t>(n, rng);
    std::vector<std::uint32_t> got32(n), want32(n);
    std::vector<std::int64_t> got64(n), want64(n);
    const std::uint32_t carry32 = static_cast<std::uint32_t>(rng());
    const std::int64_t carry64 = static_cast<std::int64_t>(rng());
    const auto tot32 = simd::exscan_u32(tier, in32.data(), got32.data(), n, carry32);
    const auto ref32 =
        simd::exscan_u32(SimdTier::kScalar, in32.data(), want32.data(), n, carry32);
    const auto tot64 = simd::exscan_i64(tier, in64.data(), got64.data(), n, carry64);
    const auto ref64 =
        simd::exscan_i64(SimdTier::kScalar, in64.data(), want64.data(), n, carry64);
    EXPECT_EQ(tot32, ref32) << "n=" << n;
    EXPECT_EQ(tot64, ref64) << "n=" << n;
    EXPECT_EQ(got32, want32) << "n=" << n;
    EXPECT_EQ(got64, want64) << "n=" << n;
  }
}

TEST_P(SimdKernelParity, MaskToFlagsMatchesScalar) {
  const SimdTier tier = GetParam();
  std::mt19937_64 rng(44);
  for (const std::size_t n : kLengths) {
    std::vector<std::uint8_t> mask(n);
    for (auto& m : mask) m = static_cast<std::uint8_t>(rng() % 3 == 0 ? rng() : 0);
    std::vector<std::uint32_t> got(n, 7), want(n, 9);
    simd::mask_to_flags(tier, mask.data(), got.data(), n);
    simd::mask_to_flags(SimdTier::kScalar, mask.data(), want.data(), n);
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST_P(SimdKernelParity, DoublingRoundsMatchScalar) {
  const SimdTier tier = GetParam();
  std::mt19937_64 rng(45);
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;  // gathers need at least one target
    std::vector<std::int32_t> jump(n);
    std::vector<std::int64_t> val(n);
    for (std::size_t v = 0; v < n; ++v) {
      jump[v] = static_cast<std::int32_t>(rng() % n);
      val[v] = static_cast<std::int64_t>(rng());
    }
    // Run each round over a sub-range too: the blocked callers pass
    // [lo, hi) slices whose gathers reach outside the slice.
    const std::size_t lo = n > 4 ? 2 : 0;
    const std::size_t hi = n;
    std::vector<std::int64_t> nval_got(n, -1), nval_want(n, -1);
    std::vector<std::int32_t> njump_got(n, -1), njump_want(n, -1);
    simd::window_min_round(tier, val.data(), jump.data(), nval_got.data(),
                           njump_got.data(), lo, hi);
    simd::window_min_round(SimdTier::kScalar, val.data(), jump.data(), nval_want.data(),
                           njump_want.data(), lo, hi);
    EXPECT_EQ(nval_got, nval_want) << "n=" << n;
    EXPECT_EQ(njump_got, njump_want) << "n=" << n;

    std::vector<std::int64_t> rank = val;
    std::vector<std::int64_t> nrank_got(n, -1), nrank_want(n, -1);
    std::vector<std::int32_t> nhead_got(n, -1), nhead_want(n, -1);
    simd::list_rank_round(tier, jump.data(), rank.data(), nhead_got.data(),
                          nrank_got.data(), lo, hi);
    simd::list_rank_round(SimdTier::kScalar, jump.data(), rank.data(), nhead_want.data(),
                          nrank_want.data(), lo, hi);
    EXPECT_EQ(nrank_got, nrank_want) << "n=" << n;
    EXPECT_EQ(nhead_got, nhead_want) << "n=" << n;
  }
}

TEST_P(SimdKernelParity, WindowMinRoundTiesKeepFirst) {
  // min(a, b) must keep val[v] on ties (b < a ? b : a), on every tier.
  const SimdTier tier = GetParam();
  const std::size_t n = 16;
  std::vector<std::int64_t> val(n, 5);
  std::vector<std::int32_t> jump(n);
  for (std::size_t v = 0; v < n; ++v) jump[v] = static_cast<std::int32_t>((v + 1) % n);
  std::vector<std::int64_t> nval(n);
  std::vector<std::int32_t> njump(n);
  simd::window_min_round(tier, val.data(), jump.data(), nval.data(), njump.data(), 0, n);
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(nval[v], 5);
  // And with negative keys on both sides of the compare.
  for (std::size_t v = 0; v < n; ++v) val[v] = (v % 2 == 0) ? -7 : 7;
  simd::window_min_round(tier, val.data(), jump.data(), nval.data(), njump.data(), 0, n);
  std::vector<std::int64_t> want(n);
  simd::window_min_round(SimdTier::kScalar, val.data(), jump.data(), want.data(),
                         njump.data(), 0, n);
  EXPECT_EQ(nval, want);
}

INSTANTIATE_TEST_SUITE_P(Tiers, SimdKernelParity, ::testing::ValuesIn(tiers_to_test()),
                         [](const auto& info) {
                           return std::string(simd_tier_name(info.param));
                         });

// --------------------------------------------------------------------------
// Full-path parity: force each tier and run the public substrate entry
// points across executor widths; results must match the scalar reference
// byte for byte.

struct ForcedTier {
  explicit ForcedTier(SimdTier tier) { force_simd_tier(tier); }
  ~ForcedTier() { clear_forced_simd_tier(); }
};

TEST(SimdDispatch, TierControls) {
  // Forcing clamps to the detected tier and clearing restores detection.
  const SimdTier detected = detected_simd_tier();
  {
    ForcedTier forced(SimdTier::kScalar);
    EXPECT_EQ(active_simd_tier(), SimdTier::kScalar);
  }
  {
    ForcedTier forced(SimdTier::kAvx2);
    EXPECT_LE(static_cast<int>(active_simd_tier()), static_cast<int>(detected));
  }
  EXPECT_LE(static_cast<int>(active_simd_tier()), static_cast<int>(detected));
}

TEST(SimdDispatch, TierNamesRoundTrip) {
  for (const SimdTier tier : tiers_to_test()) {
    const auto parsed = parse_simd_tier(simd_tier_name(tier));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, tier);
  }
  // "sse2" is only an NCPM_SIMD alias for scalar (see EnvCap), not a tier.
  EXPECT_FALSE(parse_simd_tier("sse2").has_value());
  EXPECT_FALSE(parse_simd_tier("avx512").has_value());
  EXPECT_FALSE(parse_simd_tier("").has_value());
}

TEST(SimdDispatch, EnvCap) {
  // Runs under whatever NCPM_SIMD the process was started with: CTest
  // registers a second run under NCPM_SIMD=sse2, CI runs it unset and under
  // NCPM_SIMD=scalar. A cap at or above the CPU's tier leaves detection in
  // charge; "sse2" must not leave AVX2 on.
  const char* env = std::getenv("NCPM_SIMD");
  const std::string_view cap = env == nullptr ? "" : env;
  const SimdTier want =
      cap == "scalar" || cap == "sse2" ? SimdTier::kScalar : detected_simd_tier();
  EXPECT_EQ(active_simd_tier(), want) << "NCPM_SIMD=" << cap;
}

TEST(SimdDispatch, FullPathsBitExactAcrossTiersAndWidths) {
  std::mt19937_64 rng(49);
  const std::size_t n = 1000;
  std::vector<std::uint32_t> scan_in(n);
  for (auto& v : scan_in) v = static_cast<std::uint32_t>(rng() % 1000);
  std::vector<std::uint8_t> keep(n);
  for (auto& k : keep) k = static_cast<std::uint8_t>(rng() % 2);
  std::vector<std::int32_t> next(n);
  for (std::size_t v = 0; v < n; ++v) {
    // A forest with a few roots: Wyllie terminates and ranks are defined.
    next[v] = v < 3 ? static_cast<std::int32_t>(v)
                    : static_cast<std::int32_t>(rng() % v);
  }
  std::vector<std::int64_t> key(n);
  for (auto& k : key) k = static_cast<std::int64_t>(rng() % 100000) - 50000;

  // Scalar single-lane reference.
  std::vector<std::uint32_t> ref_scan(n);
  std::vector<std::uint32_t> ref_compact;
  std::vector<std::int32_t> ref_head(n);
  std::vector<std::int64_t> ref_rank(n);
  std::vector<std::uint8_t> ref_reach(n);
  std::vector<std::int64_t> ref_win(n);
  std::uint32_t ref_total = 0;
  {
    ForcedTier forced(SimdTier::kScalar);
    Executor ex(1);
    Workspace ws(ex);
    ref_total = exclusive_scan<std::uint32_t>(scan_in, ref_scan, ws);
    ref_compact = compact_indices(keep, ws);
    list_rank_into(next, {ref_head, ref_rank, ref_reach}, ws);
    window_min_into(next, key, 64, ref_win, ws);
  }

  for (const SimdTier tier : tiers_to_test()) {
    for (const int lanes : {1, 2, 4}) {
      ForcedTier forced(tier);
      Executor ex(lanes);
      Workspace ws(ex);
      std::vector<std::uint32_t> scan_out(n);
      EXPECT_EQ(exclusive_scan<std::uint32_t>(scan_in, scan_out, ws), ref_total);
      EXPECT_EQ(scan_out, ref_scan) << simd_tier_name(tier) << " lanes=" << lanes;
      EXPECT_EQ(compact_indices(keep, ws), ref_compact)
          << simd_tier_name(tier) << " lanes=" << lanes;
      std::vector<std::int32_t> head(n);
      std::vector<std::int64_t> rank(n);
      std::vector<std::uint8_t> reach(n);
      list_rank_into(next, {head, rank, reach}, ws);
      EXPECT_EQ(head, ref_head) << simd_tier_name(tier) << " lanes=" << lanes;
      EXPECT_EQ(rank, ref_rank) << simd_tier_name(tier) << " lanes=" << lanes;
      EXPECT_EQ(reach, ref_reach) << simd_tier_name(tier) << " lanes=" << lanes;
      std::vector<std::int64_t> win(n);
      window_min_into(next, key, 64, win, ws);
      EXPECT_EQ(win, ref_win) << simd_tier_name(tier) << " lanes=" << lanes;
    }
  }
}

TEST(SimdDispatch, AlignedVectorIsCacheLineAligned) {
  AlignedVector<std::uint64_t> v(17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0U);
  AlignedVector<std::uint8_t> b(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLineBytes, 0U);
}

// --------------------------------------------------------------------------
// Affinity plumbing (best-effort pinning: assert the bookkeeping, not the
// kernel's scheduling).

TEST(ExecutorAffinity, ParseCpuList) {
  const auto single = parse_cpu_list("0");
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(*single, (std::vector<int>{0}));

  const auto mixed = parse_cpu_list("0,2-4,7");
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(*mixed, (std::vector<int>{0, 2, 3, 4, 7}));

  EXPECT_FALSE(parse_cpu_list("").has_value());
  EXPECT_FALSE(parse_cpu_list("0-").has_value());
  EXPECT_FALSE(parse_cpu_list("-3").has_value());
  EXPECT_FALSE(parse_cpu_list("1,,2").has_value());
  EXPECT_FALSE(parse_cpu_list("3-1").has_value());
  EXPECT_FALSE(parse_cpu_list("1,2,").has_value());
  EXPECT_FALSE(parse_cpu_list("a").has_value());
  EXPECT_FALSE(parse_cpu_list("1-2-3").has_value());
}

TEST(ExecutorAffinity, AllowedCpusNonEmpty) {
  const auto cpus = allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  for (const int c : cpus) EXPECT_GE(c, 0);
}

TEST(ExecutorAffinity, UnpinnedByDefault) {
  Executor ex(2);
  EXPECT_FALSE(ex.pinned());
  EXPECT_EQ(ex.lane_cpu(0), -1);
}

TEST(ExecutorAffinity, PinnedExecutorMapsLanesRoundRobin) {
  AffinityRestorer restore;
  ExecutorConfig config;
  config.lanes = 4;
  config.pin_lanes = true;
  config.cpu_set = {0};  // CPU 0 always exists
  Executor ex(config);
#if defined(__linux__)
  EXPECT_TRUE(ex.pinned());
  for (int lane = 0; lane < 4; ++lane) EXPECT_EQ(ex.lane_cpu(lane), 0);
#else
  EXPECT_FALSE(ex.pinned());
#endif
  // Pinned or not, rounds still produce correct results.
  std::vector<std::uint32_t> in(257, 1);
  std::vector<std::uint32_t> out(in.size());
  Workspace ws(ex);
  EXPECT_EQ(exclusive_scan<std::uint32_t>(in, out, ws), 257U);
  EXPECT_EQ(out[256], 256U);
}

TEST(ExecutorAffinity, CpuOffsetRotatesAssignment) {
  AffinityRestorer restore;
  ExecutorConfig config;
  config.lanes = 2;
  config.pin_lanes = true;
  config.cpu_set = {0, 0, 0};
  config.cpu_offset = 2;
#if defined(__linux__)
  Executor ex(config);
  EXPECT_EQ(ex.lane_cpu(0), config.cpu_set[2 % 3]);
  EXPECT_EQ(ex.lane_cpu(1), config.cpu_set[(2 + 1) % 3]);
#endif
}

TEST(ExecutorAffinity, ResizeKeepsPinning) {
  AffinityRestorer restore;
  ExecutorConfig config;
  config.lanes = 2;
  config.pin_lanes = true;
  config.cpu_set = {0};
  Executor ex(config);
  ex.resize(3);
#if defined(__linux__)
  EXPECT_TRUE(ex.pinned());
  EXPECT_EQ(ex.lane_cpu(2), 0);
#endif
  std::vector<std::uint32_t> in(64, 2);
  std::vector<std::uint32_t> out(in.size());
  Workspace ws(ex);
  EXPECT_EQ(exclusive_scan<std::uint32_t>(in, out, ws), 128U);
}

TEST(ExecutorAffinity, WorkspacePrefaultWarmsPool) {
  Executor ex(2);
  Workspace ws(ex);
  ws.prefault<std::int64_t>(4096);
  const auto before = ws.heap_allocations();
  auto buf = ws.take<std::int64_t>(4096, std::int64_t{1});
  EXPECT_EQ(ws.heap_allocations(), before);  // reuses the prefaulted buffer
  EXPECT_EQ(buf[4095], 1);
}

}  // namespace
}  // namespace ncpm::pram
