// Section V: popular matchings with ties (AIKM characterization) and the
// Theorem 11 reduction, validated against brute force and Hopcroft–Karp.

#include "core/ties.hpp"

#include <gtest/gtest.h>

#include "core/popular_matching.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "support/popular_oracle.hpp"
#include "support/rank1_reduction.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

TEST(Ties, RequiresLastResorts) {
  const auto inst = Instance::with_ties(2, {{{0}}}, false);
  EXPECT_THROW(find_popular_matching_ties(inst), std::invalid_argument);
}

TEST(Ties, AllTiedSingleGroupAdmitsPopularMatching) {
  // Two applicants indifferent between two posts: any perfect assignment is
  // popular.
  const auto inst = Instance::with_ties(2, {{{0, 1}}, {{0, 1}}});
  const auto m = find_popular_matching_ties(inst);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(test::is_popular(inst, *m));
  EXPECT_EQ(matching_size(inst, *m), 2u);
}

TEST(Ties, StrictContentionStillDetected) {
  // The strict 3-on-2 contention instance, fed through the ties machinery.
  const auto inst = gen::contention_instance(3);
  EXPECT_FALSE(find_popular_matching_ties(inst).has_value());
}

TEST(Ties, TieOnFirstChoicesRescuesContention) {
  // Unlike the strict contention case, a rank-1 tie over three posts lets
  // all three applicants be rank-1 matched.
  const auto inst = Instance::with_ties(3, {{{0, 1, 2}}, {{0, 1, 2}}, {{0, 1, 2}}});
  const auto m = find_popular_matching_ties(inst);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(test::is_popular(inst, *m));
}

struct TiesParam {
  std::uint64_t seed;
  std::int32_t n_a, n_p;
  // 64-bit, so the struct has no padding: CTest names these cases by the
  // parameter's bytes, which are then the same in every build.
  std::int64_t list_max;
  double tie_prob;
};
static_assert(sizeof(TiesParam) == 32, "TiesParam must have no padding bytes");

class TiesBruteForce : public ::testing::TestWithParam<TiesParam> {};

TEST_P(TiesBruteForce, AgreesWithExhaustiveOracle) {
  const auto [seed, n_a, n_p, list_max, tie_prob] = GetParam();
  for (std::uint64_t round = 0; round < 25; ++round) {
    gen::TiesConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.tie_prob = tie_prob;
    cfg.seed = seed * 613 + round;
    const auto inst = gen::random_ties_instance(cfg);
    const auto m = find_popular_matching_ties(inst);
    const auto oracle = test::all_popular_matchings_bruteforce(inst);
    ASSERT_EQ(m.has_value(), !oracle.empty()) << "seed " << cfg.seed;
    if (m.has_value()) {
      EXPECT_TRUE(test::is_popular(inst, *m)) << "seed " << cfg.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TinyInstances, TiesBruteForce,
                         ::testing::Values(TiesParam{1, 3, 3, 3, 0.5}, TiesParam{2, 4, 3, 2, 0.3},
                                           TiesParam{3, 4, 4, 4, 0.7}, TiesParam{4, 5, 4, 3, 0.4},
                                           TiesParam{5, 5, 3, 3, 1.0},
                                           TiesParam{6, 4, 4, 3, 0.0}));

class TiesVsStrict : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TiesVsStrict, OnStrictInstancesExistenceMatchesAlgorithm1) {
  pram::Workspace ws;
  for (std::uint64_t round = 0; round < 10; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 40;
    cfg.num_posts = 30;
    cfg.list_min = 1;
    cfg.list_max = 5;
    cfg.seed = GetParam() * 97 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto via_ties = find_popular_matching_ties(inst);
    const auto via_nc = find_popular_matching(inst, ws);
    ASSERT_EQ(via_ties.has_value(), via_nc.has_value()) << "seed " << cfg.seed;
    if (via_ties.has_value()) {
      // Both are popular; with strict lists the characterizations coincide.
      const auto rg = build_reduced_graph(inst, ws);
      EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *via_ties));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TiesVsStrict, ::testing::Values(1, 2, 3, 4, 5));

TEST(Theorem11, ReductionInstanceShape) {
  const auto g = gen::random_bipartite(10, 8, 2.5, 42);
  const auto inst = test::rank1_instance(g);
  EXPECT_FALSE(inst.has_last_resorts());
  EXPECT_EQ(inst.num_applicants(), 10);
  EXPECT_EQ(inst.num_posts(), 8);
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    for (const auto r : inst.ranks_of(a)) EXPECT_EQ(r, 1);
    EXPECT_EQ(inst.list_length(a), g.degree_left(a));
  }
}

class Theorem11Random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem11Random, ReductionRecoversMaximumCardinality) {
  for (std::uint64_t round = 0; round < 10; ++round) {
    const auto g =
        gen::random_bipartite(20, 15, 0.5 + static_cast<double>(round) * 0.4, GetParam() * 31 + round);
    const auto via_popular = test::max_card_bipartite_via_popular(g);
    const auto hk = matching::maximum_matching(g);
    EXPECT_EQ(via_popular.size(), hk.size());
    EXPECT_TRUE(via_popular.consistent_with(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem11Random, ::testing::Values(1, 2, 3, 4, 5));

class Lemma12And13 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma12And13, OnRank1InstancesPopularEqualsMaximum) {
  // Lemma 13: the maximum matching returned is popular (brute-force votes);
  // Lemma 12: every popular matching is maximum — checked by asserting no
  // smaller matching is popular and our popular one has maximum size.
  for (int round = 0; round < 10; ++round) {
    const auto g = gen::random_bipartite(5, 4, 1.5, GetParam() * 1000 + static_cast<std::uint64_t>(round));
    const auto inst = test::rank1_instance(g);
    const auto m = test::popular_matching_rank1(inst);
    EXPECT_TRUE(test::is_popular(inst, m)) << "Lemma 13 violated";
    // Lemma 12: all brute-force popular matchings share the maximum size.
    const auto all = test::all_popular_matchings_bruteforce(inst);
    for (const auto& cand : all) {
      EXPECT_EQ(cand.size(), m.size()) << "Lemma 12 violated";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma12And13, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ncpm::core
