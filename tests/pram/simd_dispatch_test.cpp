// Dispatch-parity suite for the SIMD substrate: every tier of both
// doubling-round kernels must be byte-identical to the scalar tier, on
// adversarial lengths (empty, single vector, one-past-a-vector,
// non-multiples of the word count) and randomized content. The
// explicit-tier kernel forms are exercised directly; the full-path cases
// force a tier via force_simd_tier and run the public entry points
// (exclusive_scan, which has no tiers, list_rank_into, window_min_into)
// across executor widths. An AVX2 request on a
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

namespace ncpm::pram {
namespace {

// Lengths straddling every vector width in play: 32-byte AVX2 vectors hold
// 4x u64 / 8x u32 / 32x u8, so 63/64/65 and 127/128/129 cross both the
// vector boundary and the unroll boundary; 1000 exercises long tails.
const std::vector<std::size_t> kLengths{0, 1, 2, 3, 7, 8, 63, 64, 65, 127, 128, 129, 1000};

std::vector<SimdTier> tiers_to_test() { return {SimdTier::kScalar, SimdTier::kAvx2}; }

class SimdKernelParity : public ::testing::TestWithParam<SimdTier> {};

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
    const bool settled_got = simd::list_rank_round(tier, jump.data(), jump.data(), rank.data(),
                                                   nhead_got.data(), nrank_got.data(), lo, hi);
    const bool settled_want =
        simd::list_rank_round(SimdTier::kScalar, jump.data(), jump.data(), rank.data(),
                              nhead_want.data(), nrank_want.data(), lo, hi);
    EXPECT_EQ(nrank_got, nrank_want) << "n=" << n;
    EXPECT_EQ(nhead_got, nhead_want) << "n=" << n;
    EXPECT_EQ(settled_got, settled_want) << "n=" << n;
  }
}

TEST_P(SimdKernelParity, ListRankRoundSettledFlag) {
  // One unsettled vertex u, placed at every position of [lo, n): in the
  // vector body and in the scalar tail. The base is a star already at its
  // fixed point: every vertex's next and head is terminal 0.
  const SimdTier tier = GetParam();
  for (const std::size_t n : {1UL, 3UL, 4UL, 7UL, 8UL, 13UL, 64UL}) {
    const std::vector<std::int32_t> next(n, 0);
    const std::vector<std::int32_t> head(n, 0);
    std::vector<std::int64_t> rank(n, 1);
    rank[0] = 0;
    std::vector<std::int32_t> nhead(n);
    std::vector<std::int64_t> nrank(n);
    for (const std::size_t lo : {0UL, 1UL}) {
      if (lo >= n) continue;
      EXPECT_TRUE(simd::list_rank_round(tier, next.data(), head.data(), rank.data(),
                                        nhead.data(), nrank.data(), lo, n))
          << "n=" << n << " lo=" << lo;
      for (std::size_t u = std::max<std::size_t>(lo, 1); u < n; ++u) {
        const auto ui = static_cast<std::int32_t>(u);
        // A head that still moves: head[u] = w, whose own head is 0.
        auto moving = head;
        moving[u] = u == 1 ? 2 : 1;
        if (static_cast<std::size_t>(moving[u]) < n) {
          EXPECT_FALSE(simd::list_rank_round(tier, next.data(), moving.data(), rank.data(),
                                             nhead.data(), nrank.data(), lo, n))
              << "n=" << n << " lo=" << lo << " u=" << u;
        }
        // A fixed point that is not a terminal (u on a cycle whose length
        // divides the jump so far): head[u] == u but next[u] != u.
        auto fixed = head;
        fixed[u] = ui;
        EXPECT_FALSE(simd::list_rank_round(tier, next.data(), fixed.data(), rank.data(),
                                           nhead.data(), nrank.data(), lo, n))
            << "n=" << n << " lo=" << lo << " u=" << u;
        // ... unlike a terminal, which is settled.
        auto terminal_next = next;
        terminal_next[u] = ui;
        EXPECT_TRUE(simd::list_rank_round(tier, terminal_next.data(), fixed.data(),
                                          rank.data(), nhead.data(), nrank.data(), lo, n))
            << "n=" << n << " lo=" << lo << " u=" << u;
      }
    }
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
  // "sse2" names a retired tier: NCPM_SIMD=sse2 warns and is ignored.
  EXPECT_FALSE(parse_simd_tier("sse2").has_value());
  EXPECT_FALSE(parse_simd_tier("avx512").has_value());
  EXPECT_FALSE(parse_simd_tier("").has_value());
}

TEST(SimdDispatch, EnvCap) {
  // Runs under whatever NCPM_SIMD the process was started with: CI runs it
  // unset and under NCPM_SIMD=scalar. A cap at or above the CPU's tier, or
  // an unknown value, leaves detection in charge.
  const char* env = std::getenv("NCPM_SIMD");
  const std::string_view cap = env == nullptr ? "" : env;
  const SimdTier want = cap == "scalar" ? SimdTier::kScalar : detected_simd_tier();
  EXPECT_EQ(active_simd_tier(), want) << "NCPM_SIMD=" << cap;
}

TEST(SimdDispatch, FullPathsBitExactAcrossTiersAndWidths) {
  std::mt19937_64 rng(49);
  const std::size_t n = 1000;
  std::vector<std::uint32_t> scan_in(n);
  for (auto& v : scan_in) v = static_cast<std::uint32_t>(rng() % 1000);
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

}  // namespace
}  // namespace ncpm::pram
