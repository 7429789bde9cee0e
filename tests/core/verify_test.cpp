// The verification layer itself: vote counting, validity, sizes, and the
// popular-matching counting extension (Theorem 9 structure) against brute
// force.

#include "core/verify.hpp"

#include <gtest/gtest.h>

#include "core/switching_graph.hpp"
#include "core/ties.hpp"
#include "gen/generators.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

TEST(Verify, VotesAreAntisymmetric) {
  const auto inst = ncpm::test::fig1_instance();
  matching::Matching m1(inst.num_applicants(), inst.total_posts());
  matching::Matching m2(inst.num_applicants(), inst.total_posts());
  const auto stated = ncpm::test::fig1_paper_matching();
  for (std::size_t a = 0; a < stated.size(); ++a) {
    m1.match(static_cast<std::int32_t>(a), stated[a]);
    // m2: everyone on their last resort.
    m2.match(static_cast<std::int32_t>(a), inst.last_resort(static_cast<std::int32_t>(a)));
  }
  EXPECT_EQ(popularity_votes(inst, m1, m2), 8);
  EXPECT_EQ(popularity_votes(inst, m2, m1), -8);
  EXPECT_EQ(popularity_votes(inst, m1, m1), 0);
}

TEST(Verify, ValidityCatchesCorruption) {
  const auto inst = ncpm::test::fig1_instance();
  matching::Matching m(inst.num_applicants(), inst.total_posts());
  // a1 matched to p3 (= id 2), which is NOT on a1's list.
  m.match(0, 2);
  EXPECT_FALSE(is_valid_assignment(inst, m));
  // Wrong shape.
  matching::Matching wrong(3, 4);
  EXPECT_FALSE(is_valid_assignment(inst, wrong));
  // Someone else's last resort is unacceptable.
  matching::Matching lr(inst.num_applicants(), inst.total_posts());
  lr.match(0, inst.last_resort(1));
  EXPECT_FALSE(is_valid_assignment(inst, lr));
}

TEST(Verify, SizeCountsRealPostsOnly) {
  const auto inst = Instance::strict(2, {{0}, {1}});
  matching::Matching m(2, inst.total_posts());
  m.match(0, 0);
  m.match(1, inst.last_resort(1));
  EXPECT_TRUE(is_applicant_complete(inst, m));
  EXPECT_EQ(matching_size(inst, m), 1u);
}

TEST(Verify, CharacterizationRequiresCompleteness) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  matching::Matching partial(inst.num_applicants(), inst.total_posts());
  partial.match(0, 0);
  EXPECT_FALSE(satisfies_popular_characterization(inst, rg, partial));
}

struct CountParam {
  std::uint64_t seed;
  std::int32_t n_a, n_p, list_max;
};

class CountPopular : public ::testing::TestWithParam<CountParam> {};

TEST_P(CountPopular, MatchesBruteForceEnumeration) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p, list_max] = GetParam();
  for (std::uint64_t round = 0; round < 8; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = n_a;
    cfg.num_posts = n_p;
    cfg.list_min = 1;
    cfg.list_max = list_max;
    cfg.seed = seed * 1009 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto count = count_popular_matchings(inst, ws);
    const auto brute = all_popular_matchings_bruteforce(inst);
    ASSERT_EQ(count.has_value(), !brute.empty()) << "seed " << cfg.seed;
    if (count.has_value()) {
      EXPECT_EQ(*count, brute.size()) << "seed " << cfg.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TinyInstances, CountPopular,
                         ::testing::Values(CountParam{1, 3, 3, 3}, CountParam{2, 4, 4, 3},
                                           CountParam{3, 5, 4, 2}, CountParam{4, 4, 5, 4},
                                           CountParam{5, 5, 5, 3}, CountParam{6, 6, 4, 2}));

TEST(CountPopular, PaperInstance) {
  pram::Workspace ws;
  // Instance I: one cycle component (x2) and one tree component with
  // switching paths from p8 and p9 (x3) -> 6 popular matchings.
  const auto inst = ncpm::test::fig1_instance();
  const auto count = count_popular_matchings(inst, ws);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 6u);
  EXPECT_EQ(all_popular_matchings_bruteforce(inst).size(), 6u);
}

TEST(TiesCharacterization, AcceptsSolverOutputAndRejectsCorruption) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::TiesConfig cfg;
    cfg.num_applicants = 20;
    cfg.num_posts = 15;
    cfg.list_min = 1;
    cfg.list_max = 4;
    cfg.tie_prob = 0.5;
    cfg.seed = seed;
    const auto inst = gen::random_ties_instance(cfg);
    const auto m = find_popular_matching_ties(inst);
    if (!m.has_value()) continue;
    EXPECT_TRUE(satisfies_ties_characterization(inst, *m)) << "seed " << seed;
    // Corrupt: move applicant 0 to its last resort (freeing a post).
    auto bad = *m;
    bad.unmatch_left(0);
    if (!bad.right_matched(inst.last_resort(0))) {
      bad.match(0, inst.last_resort(0));
      // This usually breaks condition (i); it must never crash.
      (void)satisfies_ties_characterization(inst, bad);
    }
  }
}

TEST(TiesCharacterization, AgreesWithBruteForceOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::TiesConfig cfg;
    cfg.num_applicants = 4;
    cfg.num_posts = 4;
    cfg.list_min = 1;
    cfg.list_max = 3;
    cfg.tie_prob = 0.5;
    cfg.seed = seed;
    const auto inst = gen::random_ties_instance(cfg);
    // The characterization must agree with Definition 1 on every
    // applicant-complete assignment.
    for_each_assignment(inst, [&](const std::vector<std::int32_t>& post_of) {
      const auto m = assignment_to_matching(inst, post_of);
      EXPECT_EQ(satisfies_ties_characterization(inst, m), is_popular_bruteforce(inst, m))
          << "seed " << seed;
    });
  }
}

}  // namespace
}  // namespace ncpm::core
