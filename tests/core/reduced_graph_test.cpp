// Reduced-graph construction (Section III-A), anchored on the paper's
// Figure 2 and checked by invariants on random instances.

#include "core/reduced_graph.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

TEST(ReducedGraph, Figure2OfThePaper) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  // f-posts: p1 p4 p5 p7 -> 0, 3, 4, 6.
  EXPECT_EQ(rg.f_posts, (std::vector<std::int32_t>{0, 3, 4, 6}));
  // Reduced lists of Figure 2a: (f, s) per applicant.
  const std::vector<std::pair<std::int32_t, std::int32_t>> expected = {
      {0, 1},  // a1: p1 p2
      {3, 1},  // a2: p4 p2
      {3, 2},  // a3: p4 p3
      {0, 2},  // a4: p1 p3
      {4, 1},  // a5: p5 p2
      {6, 5},  // a6: p7 p6
      {6, 7},  // a7: p7 p8
      {6, 8},  // a8: p7 p9
  };
  for (std::size_t a = 0; a < expected.size(); ++a) {
    EXPECT_EQ(rg.f_post[a], expected[a].first) << "a" << a + 1;
    EXPECT_EQ(rg.s_post[a], expected[a].second) << "a" << a + 1;
  }
  // f^-1(p7) = {a6, a7, a8} (0-indexed 5, 6, 7).
  const auto inv = rg.f_inverse(6);
  EXPECT_EQ(std::vector<std::int32_t>(inv.begin(), inv.end()),
            (std::vector<std::int32_t>{5, 6, 7}));
}

TEST(ReducedGraph, AllFPostListFallsToLastResort) {
  pram::Workspace ws;
  // a0 makes post 0 an f-post; a1's whole list is f-posts.
  const auto inst = Instance::strict(2, {{0, 1}, {0}});
  const auto rg = build_reduced_graph(inst, ws);
  EXPECT_EQ(rg.s_post[1], inst.last_resort(1));
  EXPECT_EQ(rg.s_rank[1], 2);  // one rank + 1
}

TEST(ReducedGraph, RejectsTiesAndMissingLastResorts) {
  pram::Workspace ws;
  EXPECT_THROW(build_reduced_graph(Instance::with_ties(3, {{{0, 1}}}), ws), std::invalid_argument);
  EXPECT_THROW(
      build_reduced_graph(Instance::with_ties(3, {{{0}}}, /*with_last_resorts=*/false), ws),
      std::invalid_argument);
}

class ReducedGraphRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReducedGraphRandom, StructuralInvariants) {
  pram::Workspace ws;
  gen::StrictConfig cfg;
  cfg.num_applicants = 60;
  cfg.num_posts = 40;
  cfg.list_min = 1;
  cfg.list_max = 6;
  cfg.seed = GetParam();
  const auto inst = gen::random_strict_instance(cfg);
  const auto rg = build_reduced_graph(inst, ws);

  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const auto ai = static_cast<std::size_t>(a);
    // f(a) is the top of a's list; s(a) differs from f(a).
    EXPECT_EQ(rg.f_post[ai], inst.posts_of(a)[0]);
    EXPECT_NE(rg.f_post[ai], rg.s_post[ai]);
    // f-posts and s-posts are disjoint: s(a) is never an f-post.
    EXPECT_EQ(rg.is_f_post[static_cast<std::size_t>(rg.s_post[ai])], 0);
    // s(a) is the *first* non-f-post: everything strictly better is an f-post.
    for (const auto p : inst.posts_of(a)) {
      if (p == rg.s_post[ai]) break;
      EXPECT_EQ(rg.is_f_post[static_cast<std::size_t>(p)], 1)
          << "post " << p << " above s(a) must be an f-post";
    }
    // s_rank is consistent.
    EXPECT_EQ(rg.s_rank[ai], inst.rank_of(a, rg.s_post[ai]));
  }
  // f_inverse partitions the applicants.
  std::size_t total = 0;
  for (std::int32_t p = 0; p < inst.total_posts(); ++p) {
    for (const auto a : rg.f_inverse(p)) {
      EXPECT_EQ(rg.f_post[static_cast<std::size_t>(a)], p);
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(inst.num_applicants()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReducedGraphRandom, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ncpm::core
