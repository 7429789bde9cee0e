// End-to-end reproduction of the paper's stable-marriage example
// (Figures 5-7): the underlined matching, the reduced lists, and the
// switching graph H_M whose cycles are the exposed rotations.

#include <gtest/gtest.h>

#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"
#include "stable/rotations.hpp"
#include "support/stable_oracle.hpp"
#include "test_util.hpp"

namespace ncpm::stable {
namespace {

using test::blocking_pairs;
using test::is_stable;

class StablePaperExample : public ::testing::Test {
 protected:
  StableInstance inst = ncpm::test::fig5_instance();
  MarriageMatching m = ncpm::test::fig5_matching();
};

TEST_F(StablePaperExample, Figure5MatchingIsStable) {
  EXPECT_TRUE(is_stable(inst, m));
  EXPECT_TRUE(blocking_pairs(inst, m).empty());
}

TEST_F(StablePaperExample, Figure6ReducedListsFirstAndSecondEntries) {
  // Figure 6 lists, per man: first entry = partner, second = s_M(m).
  // m1: w8 w3 | m2: w3 w6 | m3: w5 w1 ... | m8: w4 w2 w6.
  const std::vector<std::int32_t> partners{7, 2, 4, 5, 6, 0, 1, 3};
  const std::vector<std::int32_t> seconds{2, 5, 0, 7, 1, 4, 4, 1};
  for (std::int32_t man = 0; man < 8; ++man) {
    EXPECT_EQ(m.wife_of[static_cast<std::size_t>(man)], partners[static_cast<std::size_t>(man)]);
    EXPECT_EQ(s_m(inst, m, man), seconds[static_cast<std::size_t>(man)]) << "m" << man + 1;
  }
}

TEST_F(StablePaperExample, Figure7SwitchingGraphCyclesAreTheRotations) {
  pram::Workspace ws;
  const auto result = next_stable_matchings(inst, m, ws);
  EXPECT_FALSE(result.is_woman_optimal);
  // H_M (Figure 7): next(m1)=m2, next(m2)=m4, next(m4)=m1 (3-cycle);
  // next(m3)=m6, next(m6)=m3 (2-cycle); m5, m7, m8 hang off the 2-cycle.
  ASSERT_EQ(result.rotations.size(), 2u);
  auto rotations = result.rotations;
  std::sort(rotations.begin(), rotations.end(), [](const Rotation& a, const Rotation& b) {
    return a.pairs.front() < b.pairs.front();
  });
  const Rotation rho1{{{0, 7}, {1, 2}, {3, 5}}};  // (m1,w8)(m2,w3)(m4,w6)
  const Rotation rho2{{{2, 4}, {5, 0}}};          // (m3,w5)(m6,w1)
  EXPECT_EQ(rotations[0], rho1);
  EXPECT_EQ(rotations[1], rho2);
}

TEST_F(StablePaperExample, EliminationsAreStableAndDistinct) {
  pram::Workspace ws;
  const auto result = next_stable_matchings(inst, m, ws);
  ASSERT_EQ(result.successors.size(), 2u);
  for (const auto& succ : result.successors) {
    EXPECT_TRUE(is_stable(inst, succ));
    EXPECT_NE(succ.wife_of, m.wife_of);
  }
  EXPECT_NE(result.successors[0].wife_of, result.successors[1].wife_of);
}

TEST_F(StablePaperExample, FigureMatchingSitsBetweenTheExtremes) {
  const auto m0 = man_optimal(inst);
  const auto mz = woman_optimal(inst);
  // M is stable, hence dominated by M0 and dominating Mz.
  for (std::int32_t man = 0; man < 8; ++man) {
    EXPECT_LE(inst.man_rank_of(man, m0.wife_of[static_cast<std::size_t>(man)]),
              inst.man_rank_of(man, m.wife_of[static_cast<std::size_t>(man)]));
    EXPECT_LE(inst.man_rank_of(man, m.wife_of[static_cast<std::size_t>(man)]),
              inst.man_rank_of(man, mz.wife_of[static_cast<std::size_t>(man)]));
  }
}

}  // namespace
}  // namespace ncpm::stable
