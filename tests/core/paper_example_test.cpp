// End-to-end reproduction of the paper's worked example (Figures 1-4):
// instance I, its reduced graph, the Algorithm 2 trace, the resulting
// popular matching, and the switching graph of the stated matching.

#include <gtest/gtest.h>

#include "core/applicant_complete.hpp"
#include "core/max_card_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "core/verify.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

class PaperExample : public ::testing::Test {
 protected:
  pram::Workspace ws;
  Instance inst = ncpm::test::fig1_instance();
  ReducedGraph rg = build_reduced_graph(inst, ws);
};

TEST_F(PaperExample, Figure1InstanceShape) {
  EXPECT_EQ(inst.num_applicants(), 8);
  EXPECT_EQ(inst.num_posts(), 9);
  EXPECT_TRUE(inst.strict_prefs());
  // Spot checks against the printed lists.
  EXPECT_EQ(inst.rank_of(0, 0), 1);  // a1: p1 first
  EXPECT_EQ(inst.rank_of(1, 7), 5);  // a2: p8 fifth
  EXPECT_EQ(inst.rank_of(7, 2), 6);  // a8: p3 sixth
}

TEST_F(PaperExample, Figure2FAndSPosts) {
  // "The set of f-posts is {p1, p4, p5, p7} and the set of s-posts is
  // {p2, p3, p6, p8, p9}."
  EXPECT_EQ(rg.f_posts, (std::vector<std::int32_t>{0, 3, 4, 6}));
  std::vector<std::int32_t> s_posts(rg.s_post.begin(), rg.s_post.end());
  std::sort(s_posts.begin(), s_posts.end());
  s_posts.erase(std::unique(s_posts.begin(), s_posts.end()), s_posts.end());
  EXPECT_EQ(s_posts, (std::vector<std::int32_t>{1, 2, 5, 7, 8}));
}

TEST_F(PaperExample, Figure3WhileLoopOutcome) {
  const auto ac = applicant_complete_matching(inst, rg, ws);
  ASSERT_TRUE(ac.exists);
  // "In the while loop of Algorithm 2, pairs (a8,p9), (a6,p6), (a7,p8),
  // (a5,p5) are matched," leaving the 8-cycle of Figure 3 on
  // {a1..a4} u {p1, p2, p3, p4}.
  EXPECT_EQ(ac.post_of[7], 8);
  EXPECT_EQ(ac.post_of[5], 5);
  EXPECT_EQ(ac.post_of[6], 7);
  EXPECT_EQ(ac.post_of[4], 4);
  // The cycle phase must give a1..a4 posts within {p1, p2, p3, p4}.
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_GE(ac.post_of[a], 0);
    EXPECT_LE(ac.post_of[a], 3);
  }
}

TEST_F(PaperExample, SectionIIStatedMatchingIsPopularAndOursToo) {
  const auto mine = find_popular_matching(inst, ws);
  ASSERT_TRUE(mine.has_value());
  EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *mine));
  EXPECT_TRUE(is_popular_bruteforce(inst, *mine));
  EXPECT_EQ(matching_size(inst, *mine), 8u);

  matching::Matching paper(inst.num_applicants(), inst.total_posts());
  const auto stated = ncpm::test::fig1_paper_matching();
  for (std::size_t a = 0; a < stated.size(); ++a) {
    paper.match(static_cast<std::int32_t>(a), stated[a]);
  }
  EXPECT_TRUE(is_popular_bruteforce(inst, paper));
}

TEST_F(PaperExample, Figure4SwitchingGraphShape) {
  matching::Matching paper(inst.num_applicants(), inst.total_posts());
  const auto stated = ncpm::test::fig1_paper_matching();
  for (std::size_t a = 0; a < stated.size(); ++a) {
    paper.match(static_cast<std::int32_t>(a), stated[a]);
  }
  const SwitchingEngine engine(inst, rg, paper, ws);
  // "There are one switching cycle and two switching paths starting from
  // p8 and p9 respectfully."
  std::size_t cycle_count = engine.analysis().cycles.size();
  EXPECT_EQ(cycle_count, 1u);
  const auto menu = engine.menu();
  std::vector<std::int32_t> cycle_roots;
  std::vector<std::int32_t> path_starts;
  for (const auto& entry : menu.entries) {
    if (entry.cycle_root != kNone) cycle_roots.push_back(entry.cycle_root);
    const auto starts = menu.starts_of(entry);
    path_starts.insert(path_starts.end(), starts.begin(), starts.end());
  }
  EXPECT_EQ(cycle_roots, (std::vector<std::int32_t>{0}));     // p1
  EXPECT_EQ(path_starts, (std::vector<std::int32_t>{7, 8}));  // p8, p9
}

TEST_F(PaperExample, AllEightPopularMatchingsAgreeAcrossOracles) {
  // Theorem 9 enumeration and raw brute force must coincide on instance I.
  const auto mine = find_popular_matching(inst, ws);
  ASSERT_TRUE(mine.has_value());
  const auto via_switching = all_popular_matchings_via_switching(inst, rg, *mine, ws);
  const auto brute = all_popular_matchings_bruteforce(inst);
  EXPECT_EQ(via_switching.size(), brute.size());
  for (const auto& cand : via_switching) {
    EXPECT_TRUE(is_popular_bruteforce(inst, cand));
  }
  // Every popular matching of I uses all real posts: max cardinality = 8.
  const auto maxc = find_max_card_popular(inst, ws);
  ASSERT_TRUE(maxc.has_value());
  EXPECT_EQ(matching_size(inst, *maxc), 8u);
}

}  // namespace
}  // namespace ncpm::core
