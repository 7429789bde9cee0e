// Hopcroft–Karp vs exhaustive search, warm starts, and the EOU
// (Even/Odd/Unreachable) decomposition properties the ties algorithm
// depends on.

#include "matching/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include <random>

#include "support/brute_force.hpp"

namespace ncpm::matching {
namespace {

graph::BipartiteGraph random_graph(std::mt19937_64& rng, std::int32_t nl, std::int32_t nr,
                                   double density) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  for (std::int32_t l = 0; l < nl; ++l) {
    for (std::int32_t r = 0; r < nr; ++r) {
      if (unif(rng) < density) edges.emplace_back(l, r);
    }
  }
  return graph::BipartiteGraph(nl, nr, std::move(edges));
}

TEST(HopcroftKarp, PerfectMatchingOnCompleteGraph) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t l = 0; l < 4; ++l) {
    for (std::int32_t r = 0; r < 4; ++r) edges.emplace_back(l, r);
  }
  const graph::BipartiteGraph g(4, 4, edges);
  EXPECT_EQ(maximum_matching(g).size(), 4u);
}

TEST(HopcroftKarp, EmptyGraph) {
  const graph::BipartiteGraph g(3, 3, {});
  EXPECT_EQ(maximum_matching(g).size(), 0u);
}

TEST(HopcroftKarp, AugmentsThroughAlternatingPath) {
  // l0-r0, l0-r1, l1-r0: maximum is 2 but the greedy (l0,r0) must flip.
  const graph::BipartiteGraph g(2, 2, {{0, 0}, {0, 1}, {1, 0}});
  Matching greedy(2, 2);
  greedy.match(0, 0);
  const auto m = maximum_matching(g, greedy);
  EXPECT_EQ(m.size(), 2u);
}

TEST(HopcroftKarp, InitialOutsideGraphThrows) {
  const graph::BipartiteGraph g(2, 2, {{0, 0}});
  Matching bad(2, 2);
  bad.match(1, 1);
  EXPECT_THROW(maximum_matching(g, bad), std::invalid_argument);
}

struct HkParam {
  std::uint64_t seed;
  std::int32_t nl, nr;
  double density;
};

class HopcroftKarpRandom : public ::testing::TestWithParam<HkParam> {};

TEST_P(HopcroftKarpRandom, MatchesBruteForceCardinality) {
  const auto [seed, nl, nr, density] = GetParam();
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 20; ++round) {
    const auto g = random_graph(rng, nl, nr, density);
    const auto m = maximum_matching(g);
    EXPECT_TRUE(m.consistent_with(g));
    EXPECT_EQ(m.size(), test::brute_force_max_matching_size(g));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, HopcroftKarpRandom,
                         ::testing::Values(HkParam{1, 5, 5, 0.3}, HkParam{2, 6, 4, 0.5},
                                           HkParam{3, 4, 7, 0.7}, HkParam{4, 8, 8, 0.2},
                                           HkParam{5, 7, 7, 0.9}));

class EouRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EouRandom, DecompositionInvariants) {
  std::mt19937_64 rng(GetParam());
  const auto g = random_graph(rng, 12, 12, 0.25);
  const auto m = maximum_matching(g);
  const auto eou = eou_decomposition(g, m);

  for (std::int32_t l = 0; l < g.n_left(); ++l) {
    // Exposed vertices are Even.
    if (!m.left_matched(l)) {
      EXPECT_EQ(eou.left[static_cast<std::size_t>(l)], EouLabel::Even);
    }
    // Odd and Unreachable vertices are matched (in every maximum matching).
    if (eou.left[static_cast<std::size_t>(l)] != EouLabel::Even) {
      EXPECT_TRUE(m.left_matched(l));
    }
  }
  for (std::int32_t r = 0; r < g.n_right(); ++r) {
    if (!m.right_matched(r)) {
      EXPECT_EQ(eou.right[static_cast<std::size_t>(r)], EouLabel::Even);
    }
    if (eou.right[static_cast<std::size_t>(r)] != EouLabel::Even) {
      EXPECT_TRUE(m.right_matched(r));
    }
  }
  // No edge joins two Even vertices (it would expose an augmenting path),
  // and matched edges pair Even-Odd or Unreachable-Unreachable.
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto la = eou.left[static_cast<std::size_t>(g.edge_left(e))];
    const auto lp = eou.right[static_cast<std::size_t>(g.edge_right(e))];
    EXPECT_FALSE(la == EouLabel::Even && lp == EouLabel::Even);
  }
  for (std::int32_t l = 0; l < g.n_left(); ++l) {
    if (!m.left_matched(l)) continue;
    const auto la = eou.left[static_cast<std::size_t>(l)];
    const auto lp = eou.right[static_cast<std::size_t>(m.right_of(l))];
    const bool even_odd = (la == EouLabel::Even && lp == EouLabel::Odd) ||
                          (la == EouLabel::Odd && lp == EouLabel::Even);
    const bool unr_unr = la == EouLabel::Unreachable && lp == EouLabel::Unreachable;
    EXPECT_TRUE(even_odd || unr_unr) << "matched edge at left " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EouRandom, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace ncpm::matching
