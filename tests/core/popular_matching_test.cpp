// Algorithm 1 end to end (Theorem 3): the NC pipeline and the sequential
// baseline must agree on existence, and both outputs must satisfy the
// Theorem 1 characterization; on tiny instances, literal brute-force
// popularity is the oracle.

#include "core/popular_matching.hpp"

#include <gtest/gtest.h>

#include "core/abraham_baseline.hpp"
#include "core/reduced_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

TEST(PopularMatching, PaperInstanceYieldsAPopularMatching) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  const auto m = find_popular_matching(inst, ws);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *m));
  EXPECT_EQ(matching_size(inst, *m), 8u);  // everyone on a real post
}

TEST(PopularMatching, PaperStatedMatchingIsPopular) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  matching::Matching m(inst.num_applicants(), inst.total_posts());
  const auto paper = ncpm::test::fig1_paper_matching();
  for (std::size_t a = 0; a < paper.size(); ++a) {
    m.match(static_cast<std::int32_t>(a), paper[a]);
  }
  EXPECT_TRUE(satisfies_popular_characterization(inst, rg, m));
}

TEST(PopularMatching, ContentionInstanceHasNone) {
  pram::Workspace ws;
  const auto inst = gen::contention_instance(4);
  EXPECT_FALSE(find_popular_matching(inst, ws).has_value());
  EXPECT_FALSE(find_popular_matching_sequential(inst).has_value());
  EXPECT_TRUE(all_popular_matchings_bruteforce(inst).empty());
}

TEST(PopularMatching, TwoApplicantsOnePost) {
  pram::Workspace ws;
  // Both want post 0 only: f = {0}, s(a) = l(a); one gets the post, the
  // other the last resort. Popular: exists.
  const auto inst = Instance::strict(1, {{0}, {0}});
  const auto m = find_popular_matching(inst, ws);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(is_popular_bruteforce(inst, *m));
  EXPECT_EQ(matching_size(inst, *m), 1u);
}

TEST(PopularMatching, NcStatsReportRounds) {
  const auto inst = ncpm::test::fig1_instance();
  PopularRunStats stats;
  pram::Workspace ws;
  ASSERT_TRUE(find_popular_matching(inst, ws, &stats).has_value());
  const pram::NcCounters& counters = ws.counters();
  EXPECT_EQ(stats.while_rounds, 1u);
  EXPECT_GT(counters.rounds, 0u);
}

struct SmallParam {
  std::uint64_t seed;
  std::int32_t n_a, n_p, list_max;
};

class PopularBruteForce : public ::testing::TestWithParam<SmallParam> {};

TEST_P(PopularBruteForce, NcMatchesOracleOnTinyInstances) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, list_max] = GetParam();
  for (std::uint64_t round = 0; round < 25; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.seed = seed * 1000 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto nc = find_popular_matching(inst, ws);
    const auto oracle = all_popular_matchings_bruteforce(inst);
    ASSERT_EQ(nc.has_value(), !oracle.empty()) << "seed " << cfg.seed;
    if (nc.has_value()) {
      EXPECT_TRUE(is_popular_bruteforce(inst, *nc)) << "seed " << cfg.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TinyInstances, PopularBruteForce,
                         ::testing::Values(SmallParam{1, 3, 3, 3}, SmallParam{2, 4, 3, 2},
                                           SmallParam{3, 4, 4, 4}, SmallParam{4, 5, 4, 3},
                                           SmallParam{5, 5, 5, 2}, SmallParam{6, 6, 4, 3}));

struct AgreeParam {
  std::uint64_t seed;
  std::int32_t n_a, n_p;
  double zipf;
};

class NcVsSequential : public ::testing::TestWithParam<AgreeParam> {};

TEST_P(NcVsSequential, ExistenceAgreesAndBothOutputsAreCharacterized) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, zipf] = GetParam();
  for (std::uint64_t round = 0; round < 10; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 2;
    cfg.list_max = 6;
    cfg.zipf_s = zipf;
    cfg.seed = seed * 100 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto rg = build_reduced_graph(inst, ws);
    const auto nc = find_popular_matching(inst, ws);
    const auto seq = find_popular_matching_sequential(inst);
    ASSERT_EQ(nc.has_value(), seq.has_value()) << "seed " << cfg.seed;
    if (nc.has_value()) {
      EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *nc));
      EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *seq));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MediumInstances, NcVsSequential,
                         ::testing::Values(AgreeParam{1, 40, 60, 0.0}, AgreeParam{2, 100, 80, 0.0},
                                           AgreeParam{3, 64, 64, 1.0}, AgreeParam{4, 200, 300, 0.5},
                                           AgreeParam{5, 500, 700, 0.0},
                                           AgreeParam{6, 30, 200, 2.0}));

class SolvableFamilies : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolvableFamilies, PlantedInstancesAlwaysYieldPopularMatchings) {
  pram::Workspace ws;
  gen::SolvableConfig cfg;
  cfg.num_applicants = 150;
  cfg.num_posts = 260;
  cfg.all_f_fraction = 0.3;
  cfg.contention = 2.5;
  cfg.seed = GetParam();
  const auto inst = gen::solvable_strict_instance(cfg);
  const auto rg = build_reduced_graph(inst, ws);
  const auto m = find_popular_matching(inst, ws);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolvableFamilies, ::testing::Values(1, 2, 3, 4, 5));

TEST(PopularMatching, ExecutorWidthDoesNotChangeExistence) {
  gen::StrictConfig cfg;
  cfg.num_applicants = 120;
  cfg.num_posts = 90;
  cfg.seed = 99;
  const auto inst = gen::random_strict_instance(cfg);
  pram::Workspace ref_ws;
  const auto ref = find_popular_matching(inst, ref_ws);
  for (const int lanes : {1, 2, 5}) {
    pram::Executor ex(lanes);
    pram::Workspace ws(ex);
    const auto m = find_popular_matching(inst, ws);
    EXPECT_EQ(m.has_value(), ref.has_value());
  }
}

}  // namespace
}  // namespace ncpm::core
