// Pointer jumping: Wyllie ranking (plain and weighted), functional-graph
// powers, and windowed min — validated against brute-force walks on random
// structures.

#include "pram/list_ranking.hpp"

#include <gtest/gtest.h>

#include <random>

namespace ncpm::pram {
namespace {

TEST(CeilLog2, SmallValues) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(8), 3u);
  EXPECT_EQ(ceil_log2(9), 4u);
}

TEST(ListRank, SingleChain) {
  Workspace ws;
  // 0 -> 1 -> 2 -> 3 -> 3 (terminal).
  const std::vector<std::int32_t> next{1, 2, 3, 3};
  const auto r = list_rank(next, ws);
  EXPECT_EQ(r.rank, (std::vector<std::int64_t>{3, 2, 1, 0}));
  for (std::size_t v = 0; v < next.size(); ++v) {
    EXPECT_EQ(r.head[v], 3);
    EXPECT_TRUE(r.reaches_terminal[v]);
  }
}

TEST(ListRank, ForestOfChains) {
  Workspace ws;
  // Two chains: 0->1->1 and 2->3->4->4; 5 is its own terminal.
  const std::vector<std::int32_t> next{1, 1, 3, 4, 4, 5};
  const auto r = list_rank(next, ws);
  EXPECT_EQ(r.rank[0], 1);
  EXPECT_EQ(r.head[0], 1);
  EXPECT_EQ(r.rank[2], 2);
  EXPECT_EQ(r.head[2], 4);
  EXPECT_EQ(r.rank[5], 0);
}

TEST(ListRank, CycleVerticesDoNotReachTerminals) {
  Workspace ws;
  // 0 -> 1 -> 2 -> 0 cycle, 3 -> 0 leads into it, 4 terminal.
  const std::vector<std::int32_t> next{1, 2, 0, 0, 4};
  const auto r = list_rank(next, ws);
  EXPECT_FALSE(r.reaches_terminal[0]);
  EXPECT_FALSE(r.reaches_terminal[1]);
  EXPECT_FALSE(r.reaches_terminal[3]);
  EXPECT_TRUE(r.reaches_terminal[4]);
}

TEST(ListRank, RejectsOutOfRangeSuccessor) {
  Workspace ws;
  const std::vector<std::int32_t> bad{1, 7};
  EXPECT_THROW(list_rank(bad, ws), std::out_of_range);
}

TEST(WeightedListRank, SumsSourceWeightsExcludingTerminal) {
  Workspace ws;
  // 0 -> 1 -> 2 -> 2, weights 5, 7, 100 (terminal's weight never counted).
  const std::vector<std::int32_t> next{1, 2, 2};
  const std::vector<std::int64_t> w{5, 7, 100};
  const auto r = weighted_list_rank(next, w, ws);
  EXPECT_EQ(r.rank[0], 12);
  EXPECT_EQ(r.rank[1], 7);
  EXPECT_EQ(r.rank[2], 0);
}

TEST(WeightedListRank, SizeMismatchThrows) {
  Workspace ws;
  const std::vector<std::int32_t> next{0};
  const std::vector<std::int64_t> w{1, 2};
  EXPECT_THROW(weighted_list_rank(next, w, ws), std::invalid_argument);
}

TEST(KthPower, MatchesIteratedApplication) {
  Workspace ws;
  // Functional graph with a 3-cycle and a tail.
  const std::vector<std::int32_t> next{1, 2, 0, 1, 3};
  for (const std::uint64_t k : {1ULL, 2ULL, 3ULL, 5ULL, 16ULL}) {
    const auto p = kth_power(next, k, ws);
    for (std::size_t v = 0; v < next.size(); ++v) {
      std::int32_t u = static_cast<std::int32_t>(v);
      for (std::uint64_t i = 0; i < k; ++i) u = next[static_cast<std::size_t>(u)];
      EXPECT_EQ(p[v], u) << "k=" << k << " v=" << v;
    }
  }
}

TEST(WindowMin, CoversTheWindow) {
  Workspace ws;
  // Cycle 0->1->2->3->0 with keys = ids; window >= 4 sees the whole cycle.
  const std::vector<std::int32_t> next{1, 2, 3, 0};
  const std::vector<std::int64_t> key{0, 1, 2, 3};
  const auto wm = window_min(next, key, 4, ws);
  for (std::size_t v = 0; v < 4; ++v) EXPECT_EQ(wm[v], 0);
}

struct RandomParam {
  std::uint64_t seed;
  std::size_t n;
};

class ListRankingRandom : public ::testing::TestWithParam<RandomParam> {};

TEST_P(ListRankingRandom, AgreesWithBruteForceWalk) {
  Workspace ws;
  const auto [seed, n] = GetParam();
  std::mt19937_64 rng(seed);
  // Random forest-with-cycles: each vertex points to a random vertex (or
  // itself, becoming a terminal).
  std::vector<std::int32_t> next(n);
  for (std::size_t v = 0; v < n; ++v) {
    next[v] = static_cast<std::int32_t>(rng() % n);
  }
  const auto r = list_rank(next, ws);
  for (std::size_t v = 0; v < n; ++v) {
    // Walk at most n steps; if we hit a fixed point the ranking must match.
    std::int32_t u = static_cast<std::int32_t>(v);
    std::int64_t steps = 0;
    bool terminal = false;
    for (std::size_t i = 0; i <= n; ++i) {
      const std::int32_t nx = next[static_cast<std::size_t>(u)];
      if (nx == u) {
        terminal = true;
        break;
      }
      u = nx;
      ++steps;
    }
    EXPECT_EQ(r.reaches_terminal[v] != 0, terminal) << "v=" << v;
    if (terminal) {
      EXPECT_EQ(r.rank[v], steps) << "v=" << v;
      EXPECT_EQ(r.head[v], u) << "v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFunctionalGraphs, ListRankingRandom,
                         ::testing::Values(RandomParam{1, 1}, RandomParam{2, 2},
                                           RandomParam{3, 17}, RandomParam{4, 100},
                                           RandomParam{5, 257}, RandomParam{6, 1024},
                                           RandomParam{7, 4097}));

class KthPowerRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KthPowerRandom, ImageOfLargePowerIsClosedUnderNext) {
  Workspace ws;
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 200;
  std::vector<std::int32_t> next(n);
  for (std::size_t v = 0; v < n; ++v) next[v] = static_cast<std::int32_t>(rng() % n);
  const std::uint64_t k = std::uint64_t{1} << ceil_log2(n);
  const auto p = kth_power(next, k, ws);
  // Every image vertex lies on a cycle: following `next` from it must return.
  for (std::size_t v = 0; v < n; ++v) {
    std::int32_t u = p[v];
    std::int32_t walker = next[static_cast<std::size_t>(u)];
    bool returned = walker == u;
    for (std::size_t i = 0; i < n && !returned; ++i) {
      walker = next[static_cast<std::size_t>(walker)];
      returned = walker == u;
    }
    EXPECT_TRUE(returned) << "image vertex " << u << " is not on a cycle";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KthPowerRandom, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace ncpm::pram
