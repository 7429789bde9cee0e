// Gale–Shapley deferred acceptance: stability, optimality per side, and the
// textbook lattice-extremes properties.

#include "stable/gale_shapley.hpp"

#include <gtest/gtest.h>

#include "gen/stable_generators.hpp"
#include "stable/lattice.hpp"
#include "stable/stability.hpp"
#include "test_util.hpp"

namespace ncpm::stable {
namespace {

TEST(GaleShapley, PaperInstanceBothSidesStable) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig5_instance();
  const auto m0 = man_optimal(inst);
  const auto mz = woman_optimal(inst);
  EXPECT_TRUE(is_stable(inst, m0, ws));
  EXPECT_TRUE(is_stable(inst, mz, ws));
  EXPECT_TRUE(dominates(inst, m0, mz));
}

TEST(GaleShapley, SizeOneAndIdentical) {
  pram::Workspace ws;
  const auto one = StableInstance::from_lists({{0}}, {{0}});
  EXPECT_EQ(man_optimal(one).wife_of, (std::vector<std::int32_t>{0}));

  // All men share one list, all women share one list: unique stable matching.
  const auto inst = StableInstance::from_lists({{0, 1}, {0, 1}}, {{0, 1}, {0, 1}});
  const auto m0 = man_optimal(inst);
  const auto mz = woman_optimal(inst);
  EXPECT_EQ(m0.wife_of, mz.wife_of);
  EXPECT_TRUE(is_stable(inst, m0, ws));
}

class GaleShapleyRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaleShapleyRandom, ExtremesAreStableAndBracketTheLattice) {
  pram::Workspace ws;
  for (std::int32_t n : {2, 5, 9, 16, 33}) {
    const auto inst = gen::random_stable_instance(n, GetParam() * 100 + static_cast<std::uint64_t>(n));
    const auto m0 = man_optimal(inst);
    const auto mz = woman_optimal(inst);
    EXPECT_TRUE(is_stable(inst, m0, ws)) << "n=" << n;
    EXPECT_TRUE(is_stable(inst, mz, ws)) << "n=" << n;
    EXPECT_TRUE(dominates(inst, m0, mz)) << "n=" << n;
    EXPECT_TRUE(blocking_pairs(inst, m0).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaleShapleyRandom, ::testing::Values(1, 2, 3, 4, 5));

TEST(GaleShapley, ManOptimalDominatesEveryStableMatching) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = gen::random_stable_instance(7, seed);
    const auto m0 = man_optimal(inst);
    const auto mz = woman_optimal(inst);
    for (const auto& m : all_stable_matchings(inst)) {
      EXPECT_TRUE(dominates(inst, m0, m));
      EXPECT_TRUE(dominates(inst, m, mz));
    }
  }
}

TEST(Stability, DetectsPlantedBlockingPair) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig5_instance();
  auto m = ncpm::test::fig5_matching();
  // Swap two wives to break stability (the original matching is stable).
  std::swap(m.wife_of[0], m.wife_of[1]);
  const auto fixed = MarriageMatching::from_wife_of(m.wife_of);
  EXPECT_FALSE(is_stable(inst, fixed, ws));
  EXPECT_FALSE(blocking_pairs(inst, fixed).empty());
}

TEST(MarriageMatching, ValidationRejectsSharedWife) {
  EXPECT_THROW(MarriageMatching::from_wife_of({0, 0}), std::invalid_argument);
  EXPECT_THROW(MarriageMatching::from_wife_of({0, 7}), std::out_of_range);
}

}  // namespace
}  // namespace ncpm::stable
