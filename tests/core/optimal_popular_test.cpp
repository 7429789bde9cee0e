// Section IV-E: optimal popular matchings — weighted, rank-maximal and fair
// — validated against exhaustive enumeration of all popular matchings.

#include "core/optimal_popular.hpp"

#include <gtest/gtest.h>

#include "core/max_card_popular.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

struct Param {
  std::uint64_t seed;
  std::int32_t n_a, n_p, list_max;
};

class OptimalOracle : public ::testing::TestWithParam<Param> {};

TEST_P(OptimalOracle, RankMaximalBeatsEveryPopularMatchingLexicographically) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, list_max] = GetParam();
  for (std::uint64_t round = 0; round < 15; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.seed = seed * 211 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto all = all_popular_matchings_bruteforce(inst);
    const auto m = find_rank_maximal_popular(inst, ws);
    ASSERT_EQ(m.has_value(), !all.empty()) << "seed " << cfg.seed;
    if (!m.has_value()) continue;
    EXPECT_TRUE(is_popular_bruteforce(inst, *m));
    const Profile mine = matching_profile(inst, *m);
    for (const auto& cand : all) {
      const Profile other = matching_profile(inst, cand);
      EXPECT_FALSE(Profile::rank_maximal_less(mine, other))
          << "seed " << cfg.seed << ": a more rank-maximal popular matching exists";
    }
  }
}

TEST_P(OptimalOracle, FairIsMinimalAmongPopularMatchings) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, list_max] = GetParam();
  for (std::uint64_t round = 0; round < 15; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.seed = seed * 307 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto all = all_popular_matchings_bruteforce(inst);
    const auto m = find_fair_popular(inst, ws);
    ASSERT_EQ(m.has_value(), !all.empty()) << "seed " << cfg.seed;
    if (!m.has_value()) continue;
    EXPECT_TRUE(is_popular_bruteforce(inst, *m));
    const Profile mine = matching_profile(inst, *m);
    for (const auto& cand : all) {
      const Profile other = matching_profile(inst, cand);
      EXPECT_FALSE(Profile::fair_less(other, mine))
          << "seed " << cfg.seed << ": a fairer popular matching exists";
    }
  }
}

TEST_P(OptimalOracle, MaxWeightMatchesExhaustiveSearch) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, list_max] = GetParam();
  for (std::uint64_t round = 0; round < 15; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.seed = seed * 401 + round;
    const auto inst = gen::random_strict_instance(cfg);
    // Deterministic pseudo-random weights from the pair ids.
    const WeightFn weight = [&](std::int32_t a, std::int32_t p) {
      if (inst.is_last_resort(p)) return std::int64_t{0};
      return static_cast<std::int64_t>((a * 37 + p * 101) % 50);
    };
    const auto all = all_popular_matchings_bruteforce(inst);
    const auto m = find_optimal_popular(inst, weight, /*maximize=*/true, ws);
    ASSERT_EQ(m.has_value(), !all.empty());
    if (!m.has_value()) continue;
    const auto total = [&](const matching::Matching& cand) {
      std::int64_t sum = 0;
      for (std::int32_t a = 0; a < inst.num_applicants(); ++a) sum += weight(a, cand.right_of(a));
      return sum;
    };
    std::int64_t best = total(all.front());
    for (const auto& cand : all) best = std::max(best, total(cand));
    EXPECT_EQ(total(*m), best) << "seed " << cfg.seed;

    const auto mn = find_optimal_popular(inst, weight, /*maximize=*/false, ws);
    std::int64_t worst = total(all.front());
    for (const auto& cand : all) worst = std::min(worst, total(cand));
    EXPECT_EQ(total(*mn), worst) << "seed " << cfg.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(TinyInstances, OptimalOracle,
                         ::testing::Values(Param{1, 3, 3, 3}, Param{2, 4, 4, 3},
                                           Param{3, 5, 4, 2}, Param{4, 4, 5, 4},
                                           Param{5, 5, 5, 3}));

TEST(OptimalPopular, FairIsAlsoMaximumCardinality) {
  pram::Workspace ws;
  // "a fair popular matching is always a maximum-cardinality popular
  // matching since the number of last resort posts is minimized."
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 60;
    cfg.num_posts = 110;
    cfg.all_f_fraction = 0.4;
    cfg.contention = 2.5;
    cfg.seed = seed;
    const auto inst = gen::solvable_strict_instance(cfg);
    const auto fair = find_fair_popular(inst, ws);
    const auto maxc = find_max_card_popular(inst, ws);
    ASSERT_TRUE(fair.has_value());
    ASSERT_TRUE(maxc.has_value());
    EXPECT_EQ(matching_size(inst, *fair), matching_size(inst, *maxc)) << "seed " << seed;
  }
}

TEST(OptimalPopular, MaxCardIsTheUnitWeightSpecialCase) {
  pram::Workspace ws;
  // Algorithm 3 == max-weight with 1 for real posts and 0 for last resorts.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 50;
    cfg.num_posts = 90;
    cfg.all_f_fraction = 0.5;
    cfg.contention = 2.5;
    cfg.seed = seed;
    const auto inst = gen::solvable_strict_instance(cfg);
    const WeightFn unit = [&](std::int32_t, std::int32_t p) {
      return inst.is_last_resort(p) ? std::int64_t{0} : std::int64_t{1};
    };
    const auto via_weight = find_optimal_popular(inst, unit, true, ws);
    const auto via_algo3 = find_max_card_popular(inst, ws);
    ASSERT_TRUE(via_weight.has_value());
    ASSERT_TRUE(via_algo3.has_value());
    EXPECT_EQ(matching_size(inst, *via_weight), matching_size(inst, *via_algo3));
  }
}

TEST(Profile, OrdersBehaveAsDocumented) {
  Profile a(3), b(3);
  a[0] = 2;
  b[0] = 1;
  b[1] = 5;
  // Rank-maximal: a (more rank-1s) beats b.
  EXPECT_TRUE(Profile::rank_maximal_less(b, a));
  EXPECT_FALSE(Profile::rank_maximal_less(a, b));
  // Fair: compare from the worst bucket; equal there, then bucket 1: a has
  // fewer -> a is fair-smaller (better).
  EXPECT_TRUE(Profile::fair_less(a, b));
  Profile c(3);
  EXPECT_FALSE(Profile::fair_less(c, c));
  EXPECT_TRUE((a + b - b) == a);
  EXPECT_TRUE(c.is_zero());
  Profile d(2);
  EXPECT_THROW(void(Profile::fair_less(a, d)), std::invalid_argument);
  EXPECT_THROW(a += d, std::invalid_argument);
}

}  // namespace
}  // namespace ncpm::core
