// Pointer jumping: Wyllie ranking (plain and weighted), functional-graph
// powers, and windowed min — validated against brute-force walks and a
// fixed-round Wyllie reference on random structures, with the round counts
// of the converged exit pinned.

#include "pram/list_ranking.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
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

// window_min_into hands back its final jump array: the map f^K for K the
// window rounded up to a power of two.
TEST(KthPower, MatchesIteratedApplication) {
  Workspace ws;
  // Functional graph with a 3-cycle and a tail.
  const std::vector<std::int32_t> next{1, 2, 0, 1, 3};
  const std::vector<std::int64_t> key{4, 3, 2, 1, 0};
  std::vector<std::int64_t> wm(next.size());
  for (const std::uint64_t window : {0ULL, 1ULL, 2ULL, 3ULL, 5ULL, 16ULL}) {
    const auto p = window_min_into(next, key, window, wm, ws);
    const std::uint64_t k = std::uint64_t{1} << ceil_log2(window == 0 ? 1 : window);
    ASSERT_EQ(p.size(), next.size());
    for (std::size_t v = 0; v < next.size(); ++v) {
      std::int32_t u = static_cast<std::int32_t>(v);
      for (std::uint64_t i = 0; i < k; ++i) u = next[static_cast<std::size_t>(u)];
      EXPECT_EQ(p[v], u) << "window=" << window << " v=" << v;
    }
  }
}

TEST(WindowMin, CoversTheWindow) {
  Workspace ws;
  // Cycle 0->1->2->3->0 with keys = ids; window >= 4 sees the whole cycle.
  const std::vector<std::int32_t> next{1, 2, 3, 0};
  const std::vector<std::int64_t> key{0, 1, 2, 3};
  std::vector<std::int64_t> wm(4);
  window_min_into(next, key, 4, wm, ws);
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

// ---------------------------------------------------------------------------
// Early exit: the doubling loop stops once every head is a terminal. The
// reference below is the textbook fixed-round Wyllie loop, written
// independently of the library (no kernels, no convergence test).

struct Reference {
  std::vector<std::int32_t> head;
  std::vector<std::int64_t> rank;
  std::vector<std::uint8_t> reaches_terminal;
};

Reference fixed_round_wyllie(const std::vector<std::int32_t>& next,
                             const std::vector<std::int64_t>& weight) {
  const std::size_t n = next.size();
  Reference r{next, std::vector<std::int64_t>(n), std::vector<std::uint8_t>(n)};
  for (std::size_t v = 0; v < n; ++v) {
    const bool terminal = static_cast<std::size_t>(next[v]) == v;
    r.rank[v] = terminal ? 0 : weight.empty() ? 1 : weight[v];
  }
  std::uint32_t rounds = 1;
  for (std::size_t p = 1; p < n; p <<= 1U) ++rounds;  // ceil(log2 n) + 1
  for (std::uint32_t k = 0; k < rounds; ++k) {
    auto head = r.head;
    auto rank = r.rank;
    for (std::size_t v = 0; v < n; ++v) {
      const auto h = static_cast<std::size_t>(r.head[v]);
      head[v] = r.head[h];
      rank[v] = r.rank[v] + r.rank[h];
    }
    r.head = std::move(head);
    r.rank = std::move(rank);
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto h = static_cast<std::size_t>(r.head[v]);
    r.reaches_terminal[v] = static_cast<std::size_t>(next[h]) == h ? 1 : 0;
  }
  return r;
}

/// The output contract: reaches_terminal identical everywhere; head and
/// rank identical wherever the list ends in a terminal.
void expect_matches_reference(const std::vector<std::int32_t>& next,
                              const std::vector<std::int64_t>& weight, const char* what) {
  const auto want = fixed_round_wyllie(next, weight);
  for (const int lanes : {1, 2, 4}) {
    Executor ex(lanes);
    Workspace ws(ex);
    const auto got = weight.empty() ? list_rank(next, ws) : weighted_list_rank(next, weight, ws);
    ASSERT_EQ(got.reaches_terminal, want.reaches_terminal) << what << " lanes=" << lanes;
    for (std::size_t v = 0; v < next.size(); ++v) {
      if (want.reaches_terminal[v] == 0) continue;
      ASSERT_EQ(got.head[v], want.head[v]) << what << " lanes=" << lanes << " v=" << v;
      ASSERT_EQ(got.rank[v], want.rank[v]) << what << " lanes=" << lanes << " v=" << v;
    }
  }
}

/// Disjoint paths with `lengths[i]` steps each, vertex ids shuffled.
std::vector<std::int32_t> shuffled_paths(const std::vector<std::size_t>& lengths,
                                         std::mt19937_64& rng) {
  std::size_t n = 0;
  for (const auto len : lengths) n += len + 1;
  std::vector<std::int32_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  std::shuffle(id.begin(), id.end(), rng);
  std::vector<std::int32_t> next(n);
  std::size_t at = 0;
  for (const auto len : lengths) {
    for (std::size_t i = 0; i < len; ++i) {
      next[static_cast<std::size_t>(id[at + i])] = id[at + i + 1];
    }
    next[static_cast<std::size_t>(id[at + len])] = id[at + len];
    at += len + 1;
  }
  return next;
}

/// A random forest: each vertex of a shuffled order points to a random
/// earlier vertex, or is a terminal with probability 1/8.
std::vector<std::int32_t> random_forest(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::int32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::size_t>(order[i]);
    next[v] = (i == 0 || rng() % 8 == 0) ? order[i] : order[rng() % i];
  }
  return next;
}

/// A cycle on vertices 0..len-1 with a random tree of `tail` vertices
/// hanging into it, and a separate 3-step chain into a terminal.
std::vector<std::int32_t> cycle_with_trees(std::size_t len, std::size_t tail,
                                           std::mt19937_64& rng) {
  std::vector<std::int32_t> next(len + tail + 4);
  for (std::size_t v = 0; v < len; ++v) next[v] = static_cast<std::int32_t>((v + 1) % len);
  for (std::size_t v = len; v < len + tail; ++v) next[v] = static_cast<std::int32_t>(rng() % v);
  const std::size_t c = len + tail;
  for (std::size_t i = 0; i < 3; ++i) next[c + i] = static_cast<std::int32_t>(c + i + 1);
  next[c + 3] = static_cast<std::int32_t>(c + 3);
  return next;
}

std::vector<std::int64_t> random_weights(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::int64_t> w(n);
  for (auto& x : w) x = static_cast<std::int64_t>(rng() % 7) - 3;  // zero and negative too
  return w;
}

TEST(ListRankEarlyExit, ForestsMatchFixedRoundWyllie) {
  std::mt19937_64 rng(2024);
  for (const std::size_t n : {1UL, 2UL, 5UL, 64UL, 257UL, 3000UL}) {
    const auto next = random_forest(n, rng);
    expect_matches_reference(next, {}, "forest");
    expect_matches_reference(next, random_weights(n, rng), "weighted forest");
  }
}

TEST(ListRankEarlyExit, ChainsAndShortPathsMatchFixedRoundWyllie) {
  std::mt19937_64 rng(77);
  for (const std::size_t len : {0UL, 1UL, 2UL, 3UL, 4UL, 7UL, 8UL, 9UL, 255UL, 256UL, 1000UL}) {
    expect_matches_reference(shuffled_paths({len}, rng), {}, "chain");
  }
  std::vector<std::size_t> lengths(400);
  for (auto& len : lengths) len = 1 + rng() % 16;
  const auto next = shuffled_paths(lengths, rng);
  expect_matches_reference(next, {}, "short paths");
  expect_matches_reference(next, random_weights(next.size(), rng), "weighted short paths");
}

TEST(ListRankEarlyExit, CyclesMatchFixedRoundWyllie) {
  std::mt19937_64 rng(5);
  // Power-of-two lengths make every cycle vertex a fixed point of the
  // doubled map after a few rounds, without it ever reaching a terminal.
  for (const std::size_t len : {2UL, 3UL, 4UL, 5UL, 8UL, 16UL, 17UL, 64UL, 100UL}) {
    for (const std::size_t tail : {0UL, 1UL, 30UL}) {
      const auto next = cycle_with_trees(len, tail, rng);
      expect_matches_reference(next, {}, "cycle");
      expect_matches_reference(next, random_weights(next.size(), rng), "weighted cycle");
    }
  }
}

/// Rounds list_rank charges on `next`, initialisation included.
std::uint64_t rounds_charged(const std::vector<std::int32_t>& next, int lanes = 1) {
  Executor ex(lanes);
  Workspace ws(ex);
  (void)list_rank(next, ws);
  return ws.counters().rounds;
}

TEST(ListRankEarlyExit, ForestStopsAfterLogOfLongestList) {
  std::mt19937_64 rng(9);
  for (const std::size_t longest : {0UL, 1UL, 2UL, 3UL, 4UL, 5UL, 16UL, 17UL, 1000UL}) {
    // Many short paths plus one of the longest length: the round count
    // follows the longest list, not the vertex count.
    std::vector<std::size_t> lengths(300, 1);
    if (longest == 0) lengths.assign(300, 0);
    lengths.push_back(longest);
    const auto next = shuffled_paths(lengths, rng);
    // ceil(log2 L) doubling rounds reach every terminal and one more
    // observes that; the first charged round is the initialisation.
    EXPECT_EQ(rounds_charged(next), 1 + ceil_log2(longest) + 1) << "longest=" << longest;
  }
}

TEST(ListRankEarlyExit, CycleRunsTheFullBound) {
  std::mt19937_64 rng(10);
  for (const std::size_t len : {2UL, 3UL, 4UL, 8UL, 64UL}) {
    const auto next = cycle_with_trees(len, 20, rng);
    const std::uint32_t bound = ceil_log2(next.size()) + 1;
    // Initialisation, the full bound, a copy-back after an odd count, and
    // the reaches_terminal pass.
    EXPECT_EQ(rounds_charged(next), 2 + bound + bound % 2) << "len=" << len;
  }
}

TEST(ListRankEarlyExit, RoundsAreLaneIndependent) {
  std::mt19937_64 rng(11);
  const auto forest = random_forest(5000, rng);
  const auto cyclic = cycle_with_trees(16, 500, rng);
  for (const auto* next : {&forest, &cyclic}) {
    const std::uint64_t serial = rounds_charged(*next);
    for (const int lanes : {2, 4}) EXPECT_EQ(rounds_charged(*next, lanes), serial);
  }
}


class KthPowerRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KthPowerRandom, ImageOfLargePowerIsClosedUnderNext) {
  Workspace ws;
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 200;
  std::vector<std::int32_t> next(n);
  for (std::size_t v = 0; v < n; ++v) next[v] = static_cast<std::int32_t>(rng() % n);
  const std::vector<std::int64_t> key(n, 0);
  std::vector<std::int64_t> wm(n);
  const auto p = window_min_into(next, key, n, wm, ws);
  // Every image vertex of f^(2^ceil(log2 n)) lies on a cycle: following
  // `next` from it must return.
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
