// Algorithm 3 (Theorem 10) against exhaustive oracles: the result must be
// popular and as large as the largest popular matching found by brute
// force; and Theorem 9's switching enumeration must produce exactly the set
// of all popular matchings.

#include "core/max_card_popular.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

std::vector<std::int32_t> key_of(const matching::Matching& m) {
  std::vector<std::int32_t> k;
  for (std::int32_t a = 0; a < m.n_left(); ++a) k.push_back(m.right_of(a));
  return k;
}

TEST(MaxCardPopular, PaperInstanceAlreadyMaximal) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto m = find_max_card_popular(inst, ws);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(matching_size(inst, *m), 8u);
}

TEST(MaxCardPopular, ContentionStillFails) {
  pram::Workspace ws;
  EXPECT_FALSE(find_max_card_popular(gen::contention_instance(5), ws).has_value());
}

TEST(MaxCardPopular, PromotesAwayFromLastResorts) {
  pram::Workspace ws;
  // a0: list {0}; a1: list {0, 1}. f-posts = {0}; s(a0) = l(a0), s(a1) = 1.
  // Algorithm 1 may settle with a0 on its last resort; the maximum-
  // cardinality popular matching puts a0 on 0 and a1 on 1 (size 2).
  const auto inst = Instance::strict(2, {{0}, {0, 1}});
  const auto m = find_max_card_popular(inst, ws);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(matching_size(inst, *m), 2u);
  EXPECT_TRUE(is_popular_bruteforce(inst, *m));
}

struct OracleParam {
  std::uint64_t seed;
  std::int32_t n_a, n_p, list_max;
};

class MaxCardOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(MaxCardOracle, MatchesLargestBruteForcePopularMatching) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, list_max] = GetParam();
  for (std::uint64_t round = 0; round < 20; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.seed = seed * 1000 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto all = all_popular_matchings_bruteforce(inst);
    const auto m = find_max_card_popular(inst, ws);
    ASSERT_EQ(m.has_value(), !all.empty()) << "seed " << cfg.seed;
    if (!m.has_value()) continue;
    EXPECT_TRUE(is_popular_bruteforce(inst, *m)) << "seed " << cfg.seed;
    std::size_t best = 0;
    for (const auto& cand : all) best = std::max(best, matching_size(inst, cand));
    EXPECT_EQ(matching_size(inst, *m), best) << "seed " << cfg.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(TinyInstances, MaxCardOracle,
                         ::testing::Values(OracleParam{1, 3, 3, 3}, OracleParam{2, 4, 3, 2},
                                           OracleParam{3, 4, 4, 4}, OracleParam{4, 5, 4, 3},
                                           OracleParam{5, 5, 3, 2}, OracleParam{6, 6, 4, 2}));

class Theorem9Oracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(Theorem9Oracle, SwitchingEnumerationIsExactlyAllPopularMatchings) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, list_max] = GetParam();
  for (std::uint64_t round = 0; round < 10; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.seed = seed * 500 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto m = find_popular_matching(inst, ws);
    const auto brute = all_popular_matchings_bruteforce(inst);
    ASSERT_EQ(m.has_value(), !brute.empty());
    if (!m.has_value()) continue;
    const auto rg = build_reduced_graph(inst, ws);
    const auto via_switching = all_popular_matchings_via_switching(inst, rg, *m, ws);
    std::set<std::vector<std::int32_t>> brute_keys, switch_keys;
    for (const auto& cand : brute) brute_keys.insert(key_of(cand));
    for (const auto& cand : via_switching) switch_keys.insert(key_of(cand));
    EXPECT_EQ(brute_keys, switch_keys) << "seed " << cfg.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(TinyInstances, Theorem9Oracle,
                         ::testing::Values(OracleParam{1, 3, 3, 3}, OracleParam{2, 4, 4, 3},
                                           OracleParam{3, 5, 4, 2}, OracleParam{4, 4, 5, 4},
                                           OracleParam{5, 5, 5, 3}));

class MaxCardMedium : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxCardMedium, NeverSmallerThanAlgorithm1AndAlwaysCharacterized) {
  pram::Workspace ws;
  gen::SolvableConfig cfg;
  cfg.num_applicants = 120;
  cfg.num_posts = 200;
  cfg.all_f_fraction = 0.4;
  cfg.contention = 3.0;  // plenty of last-resort pressure
  cfg.seed = GetParam();
  const auto inst = gen::solvable_strict_instance(cfg);
  const auto rg = build_reduced_graph(inst, ws);
  const auto base = find_popular_matching(inst, ws);
  ASSERT_TRUE(base.has_value());
  const auto maxed = maximize_cardinality(inst, *base, ws);
  EXPECT_TRUE(satisfies_popular_characterization(inst, rg, maxed));
  EXPECT_GE(matching_size(inst, maxed), matching_size(inst, *base));
  // Idempotent: a second pass finds no positive margins.
  const auto again = maximize_cardinality(inst, maxed, ws);
  EXPECT_EQ(matching_size(inst, again), matching_size(inst, maxed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxCardMedium, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ncpm::core
