// Lev–Pippenger–Valiant Euler-split matching for 2^k-regular bipartite
// graphs, cross-checked with the direct 2-regular matcher at d = 2.

#include "matching/euler_split.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

namespace ncpm::matching {
namespace {

/// d-regular bipartite (multi)graph as a union of d random permutations.
graph::BipartiteGraph regular_graph(std::mt19937_64& rng, std::int32_t n, std::int32_t d) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  std::vector<std::int32_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::int32_t k = 0; k < d; ++k) {
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::int32_t l = 0; l < n; ++l) {
      edges.emplace_back(l, perm[static_cast<std::size_t>(l)]);
    }
  }
  return graph::BipartiteGraph(n, n, std::move(edges));
}

void expect_perfect(const graph::BipartiteGraph& g, const Matching& m) {
  EXPECT_EQ(m.size(), static_cast<std::size_t>(g.n_left()));
  EXPECT_TRUE(m.consistent_with(g));
  for (std::int32_t l = 0; l < g.n_left(); ++l) EXPECT_TRUE(m.left_matched(l));
  for (std::int32_t r = 0; r < g.n_right(); ++r) EXPECT_TRUE(m.right_matched(r));
}

TEST(EulerSplit, OneRegularIsItsOwnMatching) {
  pram::Workspace ws;
  std::mt19937_64 rng(1);
  const auto g = regular_graph(rng, 8, 1);
  expect_perfect(g, regular_bipartite_perfect_matching(g, ws));
}

TEST(EulerSplit, SidesMustMatch) {
  pram::Workspace ws;
  const graph::BipartiteGraph g(2, 3, {{0, 0}, {1, 1}});
  EXPECT_THROW(regular_bipartite_perfect_matching(g, ws), std::invalid_argument);
}

TEST(EulerSplit, IrregularThrows) {
  pram::Workspace ws;
  const graph::BipartiteGraph g(2, 2, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_THROW(regular_bipartite_perfect_matching(g, ws), std::invalid_argument);
}

TEST(EulerSplit, NonPowerOfTwoThrows) {
  pram::Workspace ws;
  // 3-regular on K_{3,3} fragment: union of 3 cyclic shifts.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t s = 0; s < 3; ++s) {
    for (std::int32_t l = 0; l < 3; ++l) edges.emplace_back(l, (l + s) % 3);
  }
  const graph::BipartiteGraph g(3, 3, std::move(edges));
  EXPECT_THROW(regular_bipartite_perfect_matching(g, ws), std::invalid_argument);
}

TEST(EulerSplit, EmptyGraph) {
  pram::Workspace ws;
  const graph::BipartiteGraph g(0, 0, {});
  EXPECT_EQ(regular_bipartite_perfect_matching(g, ws).size(), 0u);
}

struct EsParam {
  std::uint64_t seed;
  std::int32_t n;
  std::int32_t d;
};

class EulerSplitRandom : public ::testing::TestWithParam<EsParam> {};

TEST_P(EulerSplitRandom, ProducesPerfectMatchings) {
  pram::Workspace ws;
  const auto [seed, n, d] = GetParam();
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 5; ++round) {
    const auto g = regular_graph(rng, n, d);
    expect_perfect(g, regular_bipartite_perfect_matching(g, ws));
  }
}

INSTANTIATE_TEST_SUITE_P(Regular, EulerSplitRandom,
                         ::testing::Values(EsParam{1, 6, 2}, EsParam{2, 16, 2},
                                           EsParam{3, 10, 4}, EsParam{4, 32, 4},
                                           EsParam{5, 12, 8}, EsParam{6, 64, 8},
                                           EsParam{7, 128, 16}));

}  // namespace
}  // namespace ncpm::matching
