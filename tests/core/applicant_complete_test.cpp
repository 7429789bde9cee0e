// Algorithm 2: applicant-complete matchings in G', the Lemma 2 round bound,
// and failure detection via Hall's condition.

#include "core/applicant_complete.hpp"

#include <gtest/gtest.h>

#include "core/reduced_graph.hpp"
#include "gen/generators.hpp"
#include "pram/list_ranking.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

void expect_valid_applicant_complete(const Instance& inst, const ReducedGraph& rg,
                                     const ApplicantCompleteResult& result) {
  ASSERT_TRUE(result.exists);
  std::vector<std::uint8_t> used(static_cast<std::size_t>(inst.total_posts()), 0);
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const auto ai = static_cast<std::size_t>(a);
    const std::int32_t p = result.post_of[ai];
    EXPECT_TRUE(p == rg.f_post[ai] || p == rg.s_post[ai]) << "a" << a;
    EXPECT_EQ(used[static_cast<std::size_t>(p)], 0) << "post " << p << " reused";
    used[static_cast<std::size_t>(p)] = 1;
  }
}

TEST(ApplicantComplete, PaperInstanceMatchesFigure3Trace) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  const auto result = applicant_complete_matching(inst, rg, ws);
  expect_valid_applicant_complete(inst, rg, result);
  // The while-loop resolves everything reachable from the degree-1 posts
  // p5, p6, p8, p9 in a single round (Section III-C's trace), leaving the
  // Figure 3 cycle on {a1..a4} x {p1..p4} for the cycle phase.
  EXPECT_EQ(result.while_rounds, 1u);
  EXPECT_EQ(result.post_of[4], 4);  // (a5, p5)
  EXPECT_EQ(result.post_of[5], 5);  // (a6, p6)
  EXPECT_EQ(result.post_of[6], 7);  // (a7, p8)
  EXPECT_EQ(result.post_of[7], 8);  // (a8, p9)
}

TEST(ApplicantComplete, ContentionHasNoSolution) {
  pram::Workspace ws;
  const auto inst = gen::contention_instance(3);
  const auto rg = build_reduced_graph(inst, ws);
  EXPECT_FALSE(applicant_complete_matching(inst, rg, ws).exists);
}

TEST(ApplicantComplete, PureCycleNeedsNoPeeling) {
  pram::Workspace ws;
  // Two applicants sharing both posts: a 4-cycle, zero while-loop rounds.
  const auto inst = Instance::strict(2, {{0, 1}, {0, 1}});
  const auto rg = build_reduced_graph(inst, ws);
  const auto result = applicant_complete_matching(inst, rg, ws);
  expect_valid_applicant_complete(inst, rg, result);
  EXPECT_EQ(result.while_rounds, 0u);
}

TEST(ApplicantComplete, EmptyInstance) {
  pram::Workspace ws;
  const auto inst = Instance::strict(3, {});
  const auto rg = build_reduced_graph(inst, ws);
  EXPECT_TRUE(applicant_complete_matching(inst, rg, ws).exists);
}

TEST(ApplicantComplete, SingleApplicant) {
  pram::Workspace ws;
  const auto inst = Instance::strict(2, {{0, 1}});
  const auto rg = build_reduced_graph(inst, ws);
  const auto result = applicant_complete_matching(inst, rg, ws);
  expect_valid_applicant_complete(inst, rg, result);
}

class Lemma2Bound : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(Lemma2Bound, BinaryTreeRoundsStayWithinTheBound) {
  pram::Workspace ws;
  const std::int32_t depth = GetParam();
  const auto inst = gen::binary_tree_instance(depth);
  const auto rg = build_reduced_graph(inst, ws);
  const auto result = applicant_complete_matching(inst, rg, ws);
  expect_valid_applicant_complete(inst, rg, result);
  // Lemma 2: at most ceil(log2 n) + 1 rounds, n = vertices of G'.
  const std::uint64_t n =
      static_cast<std::uint64_t>(inst.num_applicants()) + static_cast<std::uint64_t>(inst.total_posts());
  EXPECT_LE(result.while_rounds, pram::ceil_log2(n) + 1);
  EXPECT_GE(result.while_rounds, 1u);
}

INSTANTIATE_TEST_SUITE_P(Depths, Lemma2Bound, ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10));

struct RandomParam {
  std::uint64_t seed;
  std::int32_t n_a;
  std::int32_t n_p;
};

class ApplicantCompleteRandom : public ::testing::TestWithParam<RandomParam> {};

TEST_P(ApplicantCompleteRandom, SolvableInstancesAlwaysSolvedWithinLemma2) {
  pram::Workspace ws;
  const auto [seed, n_a, n_p] = GetParam();
  gen::SolvableConfig cfg;
  cfg.num_applicants = n_a;
  cfg.num_posts = n_p;
  cfg.seed = seed;
  const auto inst = gen::solvable_strict_instance(cfg);
  const auto rg = build_reduced_graph(inst, ws);
  const auto result = applicant_complete_matching(inst, rg, ws);
  expect_valid_applicant_complete(inst, rg, result);
  const std::uint64_t n =
      static_cast<std::uint64_t>(inst.num_applicants()) + static_cast<std::uint64_t>(inst.total_posts());
  EXPECT_LE(result.while_rounds, pram::ceil_log2(n) + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ApplicantCompleteRandom,
                         ::testing::Values(RandomParam{1, 10, 25}, RandomParam{2, 50, 110},
                                           RandomParam{3, 200, 450}, RandomParam{4, 1000, 2200},
                                           RandomParam{5, 333, 999}, RandomParam{6, 64, 160}));

}  // namespace
}  // namespace ncpm::core
