// Section IV-E: profile-optimal popular matchings — rank-maximal and fair —
// and max-card as the unit-weight case, validated against exhaustive
// enumeration of all popular matchings.

#include "core/optimal_popular.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "core/max_card_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "support/popular_oracle.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

struct Param {
  std::uint64_t seed;
  std::int32_t n_a, n_p;
  // 64-bit, so the struct has no padding: CTest names these cases by the
  // parameter's bytes, which are then the same in every build.
  std::int64_t list_max;
};
static_assert(std::has_unique_object_representations_v<Param>);

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
    const auto all = test::all_popular_matchings_bruteforce(inst);
    const auto m = find_rank_maximal_popular(inst, ws);
    ASSERT_EQ(m.has_value(), !all.empty()) << "seed " << cfg.seed;
    if (!m.has_value()) continue;
    EXPECT_TRUE(test::is_popular(inst, *m));
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
    const auto all = test::all_popular_matchings_bruteforce(inst);
    const auto m = find_fair_popular(inst, ws);
    ASSERT_EQ(m.has_value(), !all.empty()) << "seed " << cfg.seed;
    if (!m.has_value()) continue;
    EXPECT_TRUE(test::is_popular(inst, *m));
    const Profile mine = matching_profile(inst, *m);
    for (const auto& cand : all) {
      const Profile other = matching_profile(inst, cand);
      EXPECT_FALSE(Profile::fair_less(other, mine))
          << "seed " << cfg.seed << ": a fairer popular matching exists";
    }
  }
}

// The paper realises both profile orders with integer weights: with B = n+1
// and an applicant matched at rank k (its last resort ranks R+1), weighing
// it B^(R+1-k) makes the rank-maximal popular matching the maximum-weight
// one, and weighing it B^(k-1) makes the fair one the minimum-weight one.
// Checked here against exhaustive search with ranks read off the lists, so
// the exact profile orders must agree with the paper's weights.
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
    const std::int64_t base = inst.num_applicants() + 1;
    const std::int32_t last_rank = inst.max_ranks() + 1;
    const auto power = [&](std::int32_t e) {
      std::int64_t r = 1;
      for (std::int32_t i = 0; i < e; ++i) r *= base;
      return r;
    };
    const auto rank_in = [&](const matching::Matching& cand, std::int32_t a) {
      const std::int32_t p = cand.right_of(a);
      if (inst.is_last_resort(p)) return last_rank;
      const auto posts = inst.posts_of(a);
      const auto it = std::find(posts.begin(), posts.end(), p);
      return inst.ranks_of(a)[static_cast<std::size_t>(it - posts.begin())];
    };
    const auto rank_maximal_weight = [&](const matching::Matching& cand) {
      std::int64_t sum = 0;
      for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
        sum += power(last_rank - rank_in(cand, a));
      }
      return sum;
    };
    const auto fair_weight = [&](const matching::Matching& cand) {
      std::int64_t sum = 0;
      for (std::int32_t a = 0; a < inst.num_applicants(); ++a) sum += power(rank_in(cand, a) - 1);
      return sum;
    };
    const auto all = test::all_popular_matchings_bruteforce(inst);
    const auto rm = find_rank_maximal_popular(inst, ws);
    const auto fair = find_fair_popular(inst, ws);
    ASSERT_EQ(rm.has_value(), !all.empty()) << "seed " << cfg.seed;
    ASSERT_EQ(fair.has_value(), !all.empty()) << "seed " << cfg.seed;
    if (all.empty()) continue;
    std::int64_t best = rank_maximal_weight(all.front());
    std::int64_t least = fair_weight(all.front());
    for (const auto& cand : all) {
      best = std::max(best, rank_maximal_weight(cand));
      least = std::min(least, fair_weight(cand));
    }
    EXPECT_EQ(rank_maximal_weight(*rm), best) << "seed " << cfg.seed;
    EXPECT_EQ(fair_weight(*fair), least) << "seed " << cfg.seed;
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
  // Algorithm 3 == max-weight with 1 for real posts and 0 for last resorts:
  // its matching reaches the largest unit-weight total over every popular
  // matching, enumerated by switching from Algorithm 1's (Theorem 9). At
  // 20 applicants these instances have 240-864 popular matchings (at 50,
  // millions).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 20;
    cfg.num_posts = 36;
    cfg.all_f_fraction = 0.5;
    cfg.contention = 2.5;
    cfg.seed = seed;
    const auto inst = gen::solvable_strict_instance(cfg);
    const auto unit_total = [&](const matching::Matching& cand) {
      std::int64_t sum = 0;
      for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
        sum += inst.is_last_resort(cand.right_of(a)) ? 0 : 1;
      }
      return sum;
    };
    const auto seed_matching = find_popular_matching(inst, ws);
    const auto via_algo3 = find_max_card_popular(inst, ws);
    ASSERT_TRUE(seed_matching.has_value());
    ASSERT_TRUE(via_algo3.has_value());
    const auto rg = build_reduced_graph(inst, ws);
    const auto all = all_popular_matchings_via_switching(inst, rg, *seed_matching, ws);
    ASSERT_EQ(count_popular_matchings(inst, ws), all.size()) << "seed " << seed;
    std::int64_t best = 0;
    for (const auto& cand : all) best = std::max(best, unit_total(cand));
    EXPECT_EQ(unit_total(*via_algo3), best) << "seed " << seed;
    EXPECT_EQ(static_cast<std::size_t>(best), matching_size(inst, *via_algo3)) << "seed " << seed;
  }
}

TEST(OptimalPopular, LongListAddsNoRounds) {
  // One applicant's list extended by every post it lacks, appended after
  // its own entries: f and s are unchanged, so G' and the popular matchings
  // are too. The profile passes must not scale with that one list length.
  gen::StrictConfig cfg;
  cfg.num_applicants = 512;
  cfg.num_posts = 1024;
  cfg.seed = 7;
  const auto base = gen::random_strict_instance(cfg);
  pram::Workspace probe;
  const ReducedGraph rg = build_reduced_graph(base, probe);
  std::int32_t longest = kNone;
  for (std::int32_t a = 0; a < base.num_applicants() && longest == kNone; ++a) {
    if (!base.is_last_resort(rg.s_post[static_cast<std::size_t>(a)])) longest = a;
  }
  ASSERT_NE(longest, kNone);
  std::vector<std::vector<std::int32_t>> lists;
  for (std::int32_t a = 0; a < base.num_applicants(); ++a) {
    const auto posts = base.posts_of(a);
    lists.emplace_back(posts.begin(), posts.end());
  }
  auto& list = lists[static_cast<std::size_t>(longest)];
  for (std::int32_t p = 0; p < base.num_posts(); ++p) {
    if (std::find(list.begin(), list.end(), p) == list.end()) list.push_back(p);
  }
  const auto extended = Instance::strict(base.num_posts(), std::move(lists));
  ASSERT_EQ(extended.max_ranks(), extended.num_posts());

  using Solver = std::optional<matching::Matching> (*)(const Instance&, pram::Workspace&);
  for (const Solver solve : {Solver{&find_fair_popular}, Solver{&find_rank_maximal_popular}}) {
    pram::Workspace ws_base;
    pram::Workspace ws_ext;
    const auto m_base = solve(base, ws_base);
    const auto m_ext = solve(extended, ws_ext);
    ASSERT_TRUE(m_base.has_value());
    ASSERT_TRUE(m_ext.has_value());
    EXPECT_EQ(*m_base, *m_ext);
    EXPECT_EQ(ws_base.counters().rounds, ws_ext.counters().rounds);
    EXPECT_EQ(ws_base.counters().work, ws_ext.counters().work);
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
